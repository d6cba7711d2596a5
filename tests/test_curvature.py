import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lab import curvature
from g2lab.catalog import catalog, catalog_names
from g2lab.curvature import (SolitonCertificate, einstein_calibrated_residual,
                             einstein_residual, levi_civita, rank_one_extension,
                             ricci, ricci_operator, riemann, scal_from_torsion,
                             scalar_curvature, soliton_solve, star_ricci)
from g2lab.exterior import KForm, Metric, _complement, form_inner, hodge_star, wedge
from g2lab.g2core import G2Structure, torsion_forms
from g2lab.liealg import ce_diff, jacobi_residual

from conftest import (SEMISIMPLE_PLUS_R4, closed_perturbation, metric_strategy,
                      positive_3form_strategy, scal_magnitude, semisimple_plus_r4)
from oracles import (codifferential, frame_star_ricci, kform_scal_from_torsion,
                     lstsq_soliton, projected_einstein_calibrated_residual,
                     ricci_trace_scalar_curvature, star_scal_from_torsion, star_torsion_terms)

N2 = catalog("n2").algebra
H2 = catalog("h2").algebra
S_EXT = catalog("s_ext_h2").algebra
I6 = Metric.identity(6)
I7 = Metric.identity(7)

CURVED_NAMES = ("n2", "n4", "n6", "n8", "n12", "n12_modified_basis", "s_ext_h2")
G2_NAMES = ("std_g2", "n2", "n4", "n6", "n12_modified_basis", "s_ext_h2")


def _assert_close(got, want, rtol=1e-10):
    assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


def _random_spd(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return Metric(a @ a.T + n * np.eye(n))


def _metric(name, kind):
    """The identity, the metric of the catalog 3-form, or a seeded random SPD metric."""
    entry = catalog(name)
    if kind == "identity":
        return Metric.identity(entry.algebra.dim)
    if kind == "phi":
        return G2Structure(entry.algebra, entry.forms["phi"]).metric
    return _random_spd(entry.algebra.dim, int(kind.removeprefix("seed")))


# every catalog algebra with the identity, its 3-form's metric if it has one,
# and two random SPD metrics
METRIC_CASES = [(name, kind) for name in catalog_names()
                for kind in ("identity", "phi", "seed1", "seed2")
                if kind != "phi" or "phi" in catalog(name).forms]


class TestLeviCivita:
    @pytest.mark.parametrize("op", [levi_civita, riemann, ricci, einstein_residual,
                                    soliton_solve])
    def test_metric_of_wrong_dimension(self, op):
        with pytest.raises(ValueError, match="dimension mismatch: algebra 7, metric 6"):
            op(catalog("n6").algebra, I6)

    def test_abelian_is_flat(self):
        gamma = levi_civita(catalog("n1").algebra, I7)
        assert np.abs(gamma).max() == 0.0

    def test_n2_basis_value(self):
        gamma = levi_civita(N2, I7)
        expected = np.zeros(7)
        expected[4] = -0.5
        assert np.allclose(gamma[0, 1], expected)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(CURVED_NAMES), metric_strategy(7))
    def test_compatible_and_torsion_free(self, name, g):
        algebra = catalog(name).algebra
        if algebra.dim != 7:
            return
        gamma = levi_civita(algebra, g)
        # metric compatibility: <nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0
        inner = np.einsum("ijm,mk->ijk", gamma, g.g)
        assert np.abs(inner + np.einsum("ikm,mj->ijk", gamma, g.g)).max() < 1e-11
        # torsion-free: nabla_i e_j - nabla_j e_i = [e_i, e_j]
        assert np.abs(gamma - np.transpose(gamma, (1, 0, 2))
                      - algebra.bracket).max() < 1e-11


class TestRicci:
    def test_n2_identity(self):
        expected = np.diag([-1.0, -0.5, -0.5, 0.0, 0.5, 0.5, 0.0])
        assert np.abs(ricci_operator(N2, I7) - expected).max() < 1e-13

    def test_h2_identity(self):
        expected = np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
        assert np.abs(ricci_operator(H2, I6) - expected).max() < 1e-13

    def test_s_extension_einstein(self):
        ric = ricci(S_EXT, I7)
        assert np.abs(ric - (-3.0) * np.eye(7)).max() < 1e-12
        assert abs(scalar_curvature(S_EXT, I7) - (-21.0)) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(CURVED_NAMES), metric_strategy(7))
    def test_symmetry_and_trace(self, name, g):
        algebra = catalog(name).algebra
        ric = ricci(algebra, g)
        assert np.abs(ric - ric.T).max() < 1e-10
        assert abs(scalar_curvature(algebra, g)
                   - float(np.trace(g.inverse @ ric))) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(("n2", "n6", "s_ext_h2", "n1")), metric_strategy(7))
    def test_equals_riemann_trace(self, name, g):
        algebra = catalog(name).algebra
        ric = np.einsum("ijki->jk", riemann(algebra, g))
        _assert_close(ricci(algebra, g), (ric + ric.T) / 2.0, rtol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(CURVED_NAMES), metric_strategy(7),
           st.floats(min_value=-60.0, max_value=60.0))
    def test_scale_invariant(self, name, g, log10_scale):
        # Ric of c g equals Ric of g as a bilinear form, for every c > 0
        algebra = catalog(name).algebra
        scaled = Metric((10.0 ** log10_scale) * g.g)
        _assert_close(ricci(algebra, scaled), ricci(algebra, g))

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(CURVED_NAMES), metric_strategy(7))
    def test_first_bianchi(self, name, g):
        algebra = catalog(name).algebra
        r = riemann(algebra, g)
        cyclic = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        assert np.abs(cyclic).max() < 1e-10

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(CURVED_NAMES), metric_strategy(7))
    def test_pair_symmetry(self, name, g):
        algebra = catalog(name).algebra
        r4 = np.einsum("ijkm,ml->ijkl", riemann(algebra, g), g.g)
        assert np.abs(r4 - np.einsum("klij->ijkl", r4)).max() < 1e-10


EPS = np.finfo(float).eps
U = EPS / 2


def _ill_conditioned_spd(n, seed):
    """Q diag(d) Q^T with log10 d uniform in [-2, 2]: cond g up to ~1e4."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Metric((q * 10.0 ** rng.uniform(-2.0, 2.0, n)) @ q.T)


def _besse_terms(algebra, m):
    """(1/4 |mu|_g^2, 1/2 tr(g^-1 K), h^T g^-1 h) by einsum from the bracket."""
    c, ginv = algebra.bracket, m.inverse
    mu = np.einsum("ijk,abl,ia,jb,kl->", c, c, ginv, ginv, m.g)
    killing = np.einsum("imk,jkm->ij", c, c)
    h = np.einsum("ijj->i", c)
    return 0.25 * mu, 0.5 * float(np.sum(ginv * killing.T)), float(h @ ginv @ h)


#: Besse's scal within this many u cond(g) of the sum of its terms' magnitudes
#: (`_besse_terms`) from the trace of the Ricci operator; both sides read the
#: same g and g^-1, and the identity between them holds only where g^-1 g = I,
#: which the computed inverse meets within ~cond(g) u.  A sweep of 30400 metrics
#: (every catalog algebra, so(3) + R^4 and sl(2, R) + R^4; `_random_spd` and
#: `_ill_conditioned_spd` of 400 seeds each, at scales 1e-3, 1 and 1e3) gave at
#: most 9.5 (n12, cond g 4.3e3).
BESSE_BOUND = 32.0


class TestBesseScalarCurvature:
    @pytest.mark.parametrize("name", catalog_names() + tuple(SEMISIMPLE_PLUS_R4))
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_against_ricci_trace(self, name, scale):
        algebra = (semisimple_plus_r4(name) if name in SEMISIMPLE_PLUS_R4
                   else catalog(name).algebra)
        n = algebra.dim
        for seed in range(4):
            for m in (_random_spd(n, seed), _ill_conditioned_spd(n, seed)):
                m = Metric(scale * m.g)
                size = sum(abs(term) for term in _besse_terms(algebra, m))
                bound = BESSE_BOUND * U * np.linalg.cond(m.g) * size
                assert abs(scalar_curvature(algebra, m)
                           - ricci_trace_scalar_curvature(algebra, m)) <= bound

    @pytest.mark.parametrize("name", tuple(SEMISIMPLE_PLUS_R4))
    def test_killing_term_at_the_identity(self, name):
        # so(3): |mu|^2 = 6, tr K = -6, so scal = -3/2 + 3 = 3/2, the round S^3
        # of radius 2; sl(2, R): |mu|^2 = 2 (1 + 4 + 4) = 18, tr K = 8, scal = -17/2
        want = {"so3+R4": 1.5, "sl2+R4": -8.5}[name]
        assert abs(scalar_curvature(semisimple_plus_r4(name), I7) - want) <= 8 * EPS * 8.5

    def test_zero_is_positive_zero(self):
        # an abelian algebra has scal +0.0, as the trace of the zero Ricci operator
        scal = scalar_curvature(catalog("n1").algebra, I7)
        assert scal == 0.0 and np.copysign(1.0, scal) == 1.0

    @pytest.mark.parametrize("op", [scalar_curvature, ricci_trace_scalar_curvature])
    def test_rejects_what_levi_civita_rejects(self, op):
        with pytest.raises(ValueError, match="dimension mismatch: algebra 7, metric 6"):
            op(N2, I6)


class TestScalFromTorsion:
    def test_torsion_free_is_zero(self):
        G = G2Structure(catalog("std_g2").algebra, catalog("std_g2").forms["phi"])
        assert abs(scal_from_torsion(G)) < 1e-12

    def test_calibrated_n2(self):
        entry = catalog("n2")
        G = G2Structure(entry.algebra, entry.forms["phi"])
        assert abs(scal_from_torsion(G) - (-1.0)) < 1e-12

    def test_lcc_extension(self):
        entry = catalog("s_ext_h2")
        G = G2Structure(entry.algebra, entry.forms["phi"])
        assert abs(scal_from_torsion(G) - (-21.0)) < 1e-12

    @pytest.mark.parametrize("name", ["std_g2", "n2", "n4", "n6",
                                      "n12_modified_basis", "s_ext_h2"])
    def test_agrees_with_curvature(self, name, catalog_structures):
        G = catalog_structures[name]
        assert abs(scal_from_torsion(G)
                   - scalar_curvature(G.algebra, G.metric)) < 1e-8


def _torsion_term_sizes(G):
    """|12 delta tau1| + 21/8 tau0^2 + 30 |tau1|^2 + 1/2 |tau2|^2 + 1/2 |tau3|^2."""
    t, g = torsion_forms(G), G.metric
    return (12.0 * abs(codifferential(G.algebra, g, t.tau1).coefficient(()))
            + (21.0 / 8.0) * t.tau0 ** 2 + 30.0 * form_inner(g, t.tau1, t.tau1)
            + 0.5 * form_inner(g, t.tau2, t.tau2) + 0.5 * form_inner(g, t.tau3, t.tau3))


def _contraction_terms(G):
    """(delta tau1, |tau2|^2, |tau3|^2) as `scal_from_torsion` contracts them:
    h . g^-1 tau1, -epsilon tau2 . c(d psi) / sqrt(det g) and
    tau3 . c(d phi) / sqrt(det g), c the signed complement."""
    t, m = torsion_forms(G), G.metric
    dphi = G.algebra.diff_matrix(3) @ G.phi.to_vector()
    dpsi = G.algebra.diff_matrix(4) @ G._star_phi_vec
    return (float((m.inverse @ t.tau1.to_vector()) @ G.algebra._ad_traces[1]),
            -G.orientation * float(t.tau2.to_vector() @ _complement(dpsi, 7, 5)) / m.sqrt_det,
            float(t.tau3.to_vector() @ _complement(dphi, 7, 4)) / m.sqrt_det)


def _contraction_units(G):
    """Units of the three contractions against `star_torsion_terms`.

    For delta tau1: h' . |g^-1| |tau1|, h'_i = sum_j |c_ijj|, the
    magnitude of both sides (the star path's d on 6-forms has the entries of
    h).  For |tau_k|^2, k = 2, 3: kappa(g) s_k (|d_k| / sqrt(det g) +
    |g^-1|^k s_k), s_k the size of tau_k's data (`test_g2core._sizes`: the
    Euclidean norms of the terms it combines times |g|^(5-k) / sqrt(det g)),
    |d_k| that of d psi or d phi, which the contraction pairs tau_k with."""
    t, m = torsion_forms(G), G.metric
    norm = np.linalg.norm
    phi, psi = G.phi.to_vector(), G._star_phi_vec
    dphi, dpsi = G.algebra.diff_matrix(3) @ phi, G.algebra.diff_matrix(4) @ psi
    g, ginv, kappa = norm(m.g, 2), norm(m.inverse, 2), np.linalg.cond(m.g)
    tau1 = t.tau1.to_vector()
    h = np.einsum("ijj->i", np.abs(G.algebra.bracket))
    size2 = (norm(dpsi) + 4.0 * norm(tau1) * norm(psi)) * g ** 2 / m.sqrt_det
    size3 = ((norm(dphi) + abs(t.tau0) * norm(psi) + 3.0 * norm(tau1) * norm(phi))
             * g ** 3 / m.sqrt_det)
    return (float(h @ (np.abs(m.inverse) @ np.abs(tau1))),
            kappa * size2 * (norm(dpsi) / m.sqrt_det + ginv ** 2 * size2),
            kappa * size3 * (norm(dphi) / m.sqrt_det + ginv ** 3 * size3))


#: Each contraction of `scal_from_torsion`, and their sum, within this many u of
#: its units (`_contraction_units`) from the star and compound path of
#: `oracles.star_torsion_terms`.  A sweep of 642 inputs (the six G2
#: catalog forms at scales -1e3..1e2, 300 closed and 300 generic perturbations at
#: scales 1e-3..1e3, both orientations) gave at most 1.4 (delta tau1), 1.4
#: (|tau2|^2), 3.5 (|tau3|^2) and 1.4 (the sum); 721 basis-changed catalog forms
#: (cond g up to 8.9e3) and n2's form with a 2.6e-13 entry gave at most 0.8.
#: 600 more catalog, closed and generic inputs at scales 1e-3..1e3 gave at most
#: 1.3, 2.0, 3.2 and 2.0.
CONTRACTION_BOUND = 16.0


def _assert_scal_from_torsion(G):
    """scal_from_torsion against the star and compound path, the KForm path
    and the Ricci trace (Bryant's identity).

    Each contraction is checked against `oracles.star_torsion_terms` within
    CONTRACTION_BOUND u of its units, the sum against
    `oracles.star_scal_from_torsion` within the same count of the weighted
    units.

    The star path runs the same floating-point operations as the KForm path
    `oracles.kform_scal_from_torsion`, so the two agree bit for bit.

    Against the Ricci trace the two sides share only the metric.  First-order
    rounding of a sum of N terms is within gamma_N = N u of the sum of their
    magnitudes; the longest sum is the torsion's, N = 7^3 = 343 (the degree-3
    compound on the dense tensor, in the stars of d phi), taken over S plus the
    magnitude of Besse's formula (`conftest.scal_magnitude`, whose longest
    chain of sums is 114 deep), and the metric's own error, which moves both
    sides, enters through cond(g).
    """
    got = scal_from_torsion(G)
    units = _contraction_units(G)
    terms = star_torsion_terms(G)
    for new, old, unit in zip(_contraction_terms(G), (terms[0],) + terms[2:], units):
        assert abs(new - old) <= CONTRACTION_BOUND * U * unit
    star = star_scal_from_torsion(G)
    weighted = 12.0 * units[0] + 30.0 * abs(terms[1]) + 0.5 * (units[1] + units[2])
    assert abs(got - star) <= CONTRACTION_BOUND * U * weighted
    assert star == kform_scal_from_torsion(G)

    size = _torsion_term_sizes(G)
    m = G.metric
    scal = scalar_curvature(G.algebra, m)
    magnitude = scal_magnitude(G.algebra, np.abs(m.g), np.abs(m.inverse))
    assert abs(got - scal) <= np.linalg.cond(m.g) * 343 * EPS * (size + magnitude)


class TestScalFromTorsionOnVectors:
    @pytest.mark.parametrize("name", G2_NAMES)
    @pytest.mark.parametrize("scale", [1.0, -1.0, 0.3, 2.7])
    def test_catalog(self, name, scale):
        entry = catalog(name)
        _assert_scal_from_torsion(G2Structure(entry.algebra, scale * entry.forms["phi"]))

    @settings(max_examples=30, deadline=None)
    @given(closed_perturbation(), st.sampled_from([1.0, -1.0]))
    def test_closed_perturbations(self, case, orientation):
        algebra, v = case
        _assert_scal_from_torsion(G2Structure(algebra, KForm.from_vector(7, 3, orientation * v)))

    @settings(max_examples=30, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(G2_NAMES),
           st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([1.0, -1.0]))
    def test_generic_perturbations(self, phi, name, log10_scale, orientation):
        G = G2Structure(catalog(name).algebra, (orientation * 10.0 ** log10_scale) * phi)
        _assert_scal_from_torsion(G)


def _assert_same_fit(algebra, metric, ric_op):
    """soliton_solve agrees with the least-squares oracle to 1e-12 |Ric|; returns lambda."""
    got, want = soliton_solve(algebra, metric), lstsq_soliton(algebra, metric)
    tol = 1e-12 * max(1.0, np.linalg.norm(ric_op))
    assert abs(got.lam - want.lam) <= tol
    assert np.abs(got.derivation - want.derivation).max() <= tol
    assert abs(got.residual - want.residual) <= tol
    assert got.classification == want.classification
    return got.lam


class TestSoliton:
    @pytest.mark.parametrize("name,lam,diag", [
        ("n2", -2.0, (1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 2.0)),
        ("n4", -2.5, (1.0, 1.5, 2.5, 2.0, 2.0, 3.5, 3.0)),
        ("n6", -2.5, (0.5, 2.0, 2.0, 2.5, 2.5, 3.0, 3.0)),
        ("n12_modified_basis", -0.25,
         (0.125, 0.125, 0.125, 0.25, 0.25, 0.25, 0.375)),
    ])
    def test_catalog_certificates(self, name, lam, diag, catalog_structures):
        G = catalog_structures[name]
        cert = soliton_solve(G.algebra, G.metric)
        assert cert.residual < 1e-9
        assert abs(cert.lam - lam) < 1e-9
        assert np.abs(cert.derivation - np.diag(diag)).max() < 1e-9
        assert cert.classification == "expanding"

    def test_h2_nilsoliton(self):
        cert = soliton_solve(H2, I6)
        assert abs(cert.lam - (-3.0)) < 1e-10
        assert np.abs(cert.derivation - np.diag([2.0, 2.0, 2.0, 2.0, 4.0, 4.0])).max() < 1e-10

    def test_abelian_minimum_norm(self):
        cert = soliton_solve(catalog("n1").algebra, I7)
        assert cert.residual < 1e-14
        assert abs(cert.lam) < 1e-12
        assert cert.classification == "steady"

    @pytest.mark.parametrize("name, kind", METRIC_CASES)
    def test_matches_lstsq_fit(self, name, kind):
        algebra, metric = catalog(name).algebra, _metric(name, kind)
        _assert_same_fit(algebra, metric, ricci_operator(algebra, metric))

    @pytest.mark.parametrize("name", ["n1", "n5", "h2", "s_ext_h2"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_lstsq_fit_of_any_matrix(self, name, seed, monkeypatch):
        # Ric of an abelian algebra vanishes, so only a replaced Ricci operator
        # gives n1's minimum-norm branch (I is a derivation) something to fit
        algebra = catalog(name).algebra
        R = 3.0 * np.random.default_rng(seed).standard_normal((algebra.dim, algebra.dim))
        monkeypatch.setattr(curvature, "ricci_operator", lambda algebra, metric: R)
        assert abs(_assert_same_fit(algebra, Metric.identity(algebra.dim), R)) > 0.01

    def test_identity_on_n5_is_not_a_soliton(self):
        # identity on n5 is not the nilsoliton inner product; the residual
        # must be visibly nonzero rather than silently tiny
        cert = soliton_solve(catalog("n5").algebra, I7)
        assert isinstance(cert, SolitonCertificate)
        assert cert.residual > 1e-3


class TestEinstein:
    @pytest.mark.parametrize("name, kind", METRIC_CASES)
    def test_matches_svd_norm(self, name, kind):
        algebra, metric = catalog(name).algebra, _metric(name, kind)
        ric = ricci(algebra, metric)
        gap = ric - (np.trace(metric.inverse @ ric) / algebra.dim) * metric.g
        want = np.linalg.norm(gap, 2)
        assert abs(einstein_residual(algebra, metric) - want) <= 1e-12 * max(1.0, want)

    def test_flat_abelian(self):
        assert einstein_residual(catalog("n1").algebra, I7) < 1e-15

    def test_s_extension(self):
        assert einstein_residual(S_EXT, I7) < 1e-12

    def test_nilpotent_never_einstein(self):
        entry = catalog("n2")
        G = G2Structure(entry.algebra, entry.forms["phi"])
        assert einstein_residual(entry.algebra, G.metric) > 0.1

    def test_calibrated_condition_nonzero_on_n2(self):
        entry = catalog("n2")
        G = G2Structure(entry.algebra, entry.forms["phi"])
        assert einstein_calibrated_residual(G) > 0.1

    def test_calibrated_condition_zero_when_torsion_free(self):
        G = G2Structure(catalog("std_g2").algebra, catalog("std_g2").forms["phi"])
        assert einstein_calibrated_residual(G) < 1e-12

    def test_requires_calibrated(self):
        entry = catalog("s_ext_h2")
        G = G2Structure(entry.algebra, entry.forms["phi"])
        with pytest.raises(ValueError):
            einstein_calibrated_residual(G)

    @pytest.mark.parametrize("name", ["std_g2", "n2", "n4", "n6", "n12_modified_basis"])
    def test_calibrated_condition_against_projection(self, name, catalog_structures):
        # the phi-components that fix the constant 3/14, then the residual against
        # the projected form, which does not use it
        G = catalog_structures[name]
        t, g = torsion_forms(G), G.metric
        norm2 = form_inner(g, t.tau2, t.tau2)
        d_tau2 = form_inner(g, ce_diff(G.algebra, t.tau2), G.phi)
        star_square = form_inner(g, hodge_star(g, wedge(t.tau2, t.tau2)), G.phi)
        assert d_tau2 == pytest.approx(norm2, rel=1e-12, abs=1e-13)
        assert star_square == pytest.approx(-norm2, rel=1e-12, abs=1e-13)
        assert einstein_calibrated_residual(G) == pytest.approx(
            projected_einstein_calibrated_residual(G), rel=1e-12, abs=1e-13)

    def test_consistency_on_calibrated_catalog(self):
        # Einstein <=> the calibrated curvature condition, checked both ways:
        # all four nilsoliton structures are non-Einstein and non-flat
        for name in ("n2", "n4", "n6", "n12_modified_basis"):
            entry = catalog(name)
            G = G2Structure(entry.algebra, entry.forms["phi"])
            assert einstein_calibrated_residual(G) > 1e-3
            assert einstein_residual(entry.algebra, G.metric) > 1e-3


def _star_einstein_residual(G):
    """`einstein_residual`'s spectral gap of the star-Ricci tensor in place of Ricci."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curvature, "ricci", lambda algebra, metric: star_ricci(G))
        return einstein_residual(G.algebra, G.metric)


class TestStarRicci:
    def test_flat_is_zero(self):
        G = G2Structure(catalog("std_g2").algebra, catalog("std_g2").forms["phi"])
        assert np.abs(star_ricci(G)).max() < 1e-13
        assert abs(np.trace(G.metric.inverse @ star_ricci(G))) < 1e-13

    def test_n2_regression_snapshot(self):
        # frozen after the first verified run
        entry = catalog("n2")
        G = G2Structure(entry.algebra, entry.forms["phi"])
        expected = np.diag([2.0, 3.0, 3.0, -2.0, -1.0, -1.0, -2.0])
        assert np.abs(star_ricci(G) - expected).max() < 1e-10
        assert abs(np.trace(G.metric.inverse @ star_ricci(G)) - 2.0) < 1e-10

    def test_symmetry_on_catalog(self, catalog_structures):
        for G in catalog_structures.values():
            m = star_ricci(G)
            assert np.abs(m - m.T).max() < 1e-10

    @pytest.mark.parametrize("name", G2_NAMES)
    def test_matches_frame_oracle_on_catalog(self, name, catalog_structures):
        G = catalog_structures[name]
        _assert_close(star_ricci(G), frame_star_ricci(G), rtol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(G2_NAMES),
           st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([1.0, -1.0]))
    def test_matches_frame_oracle_on_random_forms(self, phi, name, log10_scale,
                                                  orientation):
        G = G2Structure(catalog(name).algebra, (orientation * 10.0 ** log10_scale) * phi)
        _assert_close(star_ricci(G), frame_star_ricci(G))

    @pytest.mark.parametrize("name", G2_NAMES)
    @pytest.mark.parametrize("scale", [1.0, -0.1, 30.0])
    def test_star_einstein_residual_matches_svd_norm(self, name, scale):
        entry = catalog(name)
        G = G2Structure(entry.algebra, scale * entry.forms["phi"])
        ric = star_ricci(G)
        gap = ric - (np.trace(G.metric.inverse @ ric) / 7.0) * G.metric.g
        want = np.linalg.norm(gap, 2)
        got = _star_einstein_residual(G)
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_star_einstein_residual_nonnegative(self, catalog_structures):
        assert _star_einstein_residual(catalog_structures["n2"]) > 0.1
        assert _star_einstein_residual(catalog_structures["std_g2"]) < 1e-12


class TestRankOneExtension:
    def test_reproduces_catalog_extension(self):
        D = np.diag([0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        ext = rank_one_extension(H2, D)
        expected = catalog("s_ext_h2").algebra
        for got, want in zip(ext.dual_differential, expected.dual_differential):
            assert got.allclose(want, tol=0)

    def test_zero_derivation_gives_product(self):
        ext = rank_one_extension(H2, np.zeros((6, 6)))
        assert ext.dual_differential[6].is_zero()
        for i in range(6):
            restricted = KForm(6, 2, {k: v for k, v in ext.dual_differential[i].items()})
            assert restricted.allclose(H2.dual_differential[i], tol=0)

    def test_jacobi_preserved(self):
        for D in (np.diag([0.5, 0.5, 0.5, 0.5, 1.0, 1.0]), np.zeros((6, 6))):
            assert jacobi_residual(rank_one_extension(H2, D)) < 1e-13

    def test_non_derivation_rejected(self):
        D = np.zeros((6, 6))
        D[0, 1] = 1.0
        with pytest.raises(ValueError):
            rank_one_extension(H2, D)
