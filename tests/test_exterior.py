import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lab.catalog import catalog
from g2lab.exterior import (MAX_DIM, PRUNE_TOL, KForm, Metric, form_inner, hodge_star,
                            interior, multi_indices, standard_volume, wedge)

from conftest import form_strategy, metric_strategy
from oracles import (brute_hodge, brute_inner, brute_interior, brute_wedge, compound_inner,
                     compound_matrix, compound_star, dict_wedge)

PHI_STD = catalog("std_g2").forms["phi"]
I7 = Metric.identity(7)


class TestKForm:
    def test_canonicalization_sorts_with_sign(self):
        a = KForm(7, 2, {(2, 1): 3.0})
        assert a.coefficient((1, 2)) == -3.0
        assert a.coefficient((2, 1)) == 3.0

    def test_repeated_index_drops(self):
        assert KForm(7, 2, {(3, 3): 5.0}).is_zero()

    def test_pruning(self):
        assert KForm(7, 1, {(1,): 1e-14}).is_zero()

    def test_vector_round_trip(self):
        vec = PHI_STD.to_vector()
        assert KForm.from_vector(7, 3, vec).allclose(PHI_STD, tol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_from_vector_matches_canonical_constructor(self, seed):
        rng = np.random.default_rng(seed)
        edge = [PRUNE_TOL, -PRUNE_TOL, 2 * PRUNE_TOL, -2 * PRUNE_TOL, -0.0, math.nan]
        for dim in range(1, 8):
            for k in range(dim + 1):
                keys = multi_indices(dim, k)
                vec = rng.uniform(-1.0, 1.0, len(keys))
                vec[rng.random(len(keys)) < 0.3] = 0.0
                picks = rng.integers(0, len(keys), min(len(keys), len(edge)))
                vec[picks] = rng.choice(edge, len(picks))
                got = KForm.from_vector(dim, k, vec)
                want = KForm(dim, k, dict(zip(keys, vec)))
                assert (got.dim, got.degree) == (dim, k)
                assert dict(got.coeffs) == dict(want.coeffs)
                assert list(got.coeffs) == list(want.coeffs)

    def test_from_vector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            KForm.from_vector(7, 2, np.zeros(20))
        with pytest.raises(ValueError):
            KForm.from_vector(0, 1, np.zeros(0))
        with pytest.raises(ValueError):
            KForm.from_vector(MAX_DIM + 1, 1, np.zeros(MAX_DIM + 1))

    def test_from_vector_is_immutable(self):
        form = KForm.from_vector(7, 3, PHI_STD.to_vector())
        with pytest.raises(AttributeError):
            form.degree = 2
        with pytest.raises(TypeError):
            form.coeffs[(1, 2, 3)] = 5.0

    def test_equality_tolerance(self):
        assert PHI_STD == PHI_STD + KForm(7, 3, {(1, 2, 3): 1e-13})

    def test_bad_index_raises(self):
        with pytest.raises(ValueError):
            KForm(7, 2, {(1, 8): 1.0})

    def test_immutability(self):
        with pytest.raises(AttributeError):
            PHI_STD.degree = 2


class TestWedge:
    def test_basis_case(self):
        assert wedge(KForm.basis(7, (1,)), KForm.basis(7, (2,))) == KForm.basis(7, (1, 2))

    def test_repeated_index_is_zero(self):
        e12 = KForm.basis(7, (1, 2))
        assert wedge(e12, e12).is_zero()

    def test_phi_wedge_star_phi(self):
        # frozen from the brute-force expansion
        got = wedge(PHI_STD, hodge_star(I7, PHI_STD))
        assert got.allclose(7.0 * standard_volume(7), tol=1e-12)
        brute = brute_wedge(PHI_STD, brute_hodge(I7, PHI_STD))
        assert got.allclose(brute, tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(KForm.basis(7, (1,)), KForm.basis(6, (1,)))

    @settings(max_examples=40, deadline=None)
    @given(form_strategy(6, 2), form_strategy(6, 1), form_strategy(6, 2))
    def test_bilinear_and_graded_commutative(self, a, b, c):
        left = wedge(a + c, b)
        right = wedge(a, b) + wedge(c, b)
        assert left.allclose(right, tol=1e-12)
        # deg 2 * deg 1: a ^ b = (-1)^{2*1} b ^ a
        assert wedge(a, b).allclose(wedge(b, a), tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(form_strategy(6, 1), form_strategy(6, 1))
    def test_odd_degrees_anticommute(self, a, b):
        assert wedge(a, b).allclose(-wedge(b, a), tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(form_strategy(6, 1), form_strategy(6, 2), form_strategy(6, 1))
    def test_associativity(self, a, b, c):
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        assert left.allclose(right, tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(form_strategy(5, 2), form_strategy(5, 2))
    def test_against_brute_force(self, a, b):
        assert wedge(a, b).allclose(brute_wedge(a, b), tol=1e-10)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_matches_dict_loop(self, dim):
        # every degree pair, degree sums above dim included; same terms summed
        # in the same order, so the coefficients agree bit for bit
        rng = np.random.default_rng(dim)

        def sparse_form(deg):
            count = len(multi_indices(dim, deg))
            vec = rng.uniform(-2.0, 2.0, count) * (rng.random(count) < 0.6)
            return KForm.from_vector(dim, deg, vec)

        for k in range(dim + 1):
            for l in range(dim + 1):
                a, b = sparse_form(k), sparse_form(l)
                got, want = wedge(a, b), dict_wedge(a, b)
                assert (got.dim, got.degree) == (want.dim, want.degree) == (dim, k + l)
                assert list(got.items()) == list(want.items())


class TestInterior:
    def test_basis_cases(self):
        e12 = KForm.basis(7, (1, 2))
        assert interior([1, 0, 0, 0, 0, 0, 0], e12) == KForm.basis(7, (2,))
        assert interior([0, 0, 1, 0, 0, 0, 0], e12).is_zero()

    def test_phi_std_contraction(self):
        got = interior([1, 0, 0, 0, 0, 0, 0], PHI_STD)
        expected = KForm(7, 2, {(2, 7): 1.0, (3, 5): 1.0, (4, 6): -1.0})
        assert got.allclose(expected, tol=0)

    def test_zero_form_raises(self):
        with pytest.raises(ValueError):
            interior([1, 0, 0, 0, 0, 0, 0], KForm(7, 0, {(): 1.0}))

    @settings(max_examples=40, deadline=None)
    @given(form_strategy(6, 2), form_strategy(6, 2),
           st.lists(st.floats(min_value=-2, max_value=2, width=32), min_size=6, max_size=6))
    def test_antiderivation(self, a, b, v):
        v = np.array(v)
        left = interior(v, wedge(a, b))
        right = wedge(interior(v, a), b) + wedge(a, interior(v, b))
        assert left.allclose(right, tol=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(form_strategy(6, 3),
           st.lists(st.floats(min_value=-2, max_value=2, width=32), min_size=6, max_size=6))
    def test_against_brute_force(self, a, v):
        assert interior(np.array(v), a).allclose(brute_interior(np.array(v), a), tol=1e-10)

    @pytest.mark.parametrize("dim, degree", [(n, k) for n in range(1, 8)
                                             for k in range(1, n + 1)])
    def test_against_brute_force_every_degree(self, dim, degree):
        rng = np.random.default_rng(100 * dim + degree)
        v = rng.uniform(-2, 2, dim)
        for _ in range(3):
            a = KForm.from_vector(dim, degree, rng.uniform(-3, 3, len(multi_indices(dim, degree))))
            assert interior(v, a).allclose(brute_interior(v, a), tol=1e-12)


class TestHodgeStar:
    def test_identity_basis(self):
        assert hodge_star(I7, KForm.basis(7, (1,))) == KForm.basis(7, (2, 3, 4, 5, 6, 7))

    def test_star_phi_std(self):
        # frozen from the brute-force linear solve
        expected = KForm(7, 4, {(1, 2, 3, 4): 1.0, (1, 2, 5, 6): 1.0, (3, 4, 5, 6): 1.0,
                                (1, 3, 6, 7): 1.0, (1, 4, 5, 7): 1.0, (2, 3, 5, 7): 1.0,
                                (2, 4, 6, 7): -1.0})
        got = hodge_star(I7, PHI_STD)
        assert got.allclose(expected, tol=1e-13)
        assert got.allclose(brute_hodge(I7, PHI_STD), tol=1e-12)

    def test_orientation_flip(self):
        reversed_volume = -1.0 * standard_volume(7)
        a = KForm.basis(7, (1, 2, 3))
        assert hodge_star(I7, a, reversed_volume).allclose(-hodge_star(I7, a), tol=0)

    def test_rejects_indefinite_metric(self):
        g = Metric(np.diag([1, 1, 1, 1, 1, 1, -1]))
        with pytest.raises(ValueError):
            hodge_star(g, KForm.basis(7, (1,)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=6),
           st.lists(st.floats(min_value=-3, max_value=3, width=32), min_size=20, max_size=20),
           metric_strategy(6))
    def test_double_star_parity(self, k, coeffs, g):
        from g2lab.exterior import multi_indices
        count = len(multi_indices(6, k))
        form = KForm.from_vector(6, k, np.array(coeffs[:count]))
        sign = (-1.0) ** (k * (6 - k))
        got = hodge_star(g, hodge_star(g, form))
        assert got.allclose(sign * form, tol=1e-9 * max(1.0, form.sup_norm()))

    @settings(max_examples=25, deadline=None)
    @given(form_strategy(6, 2), form_strategy(6, 2), metric_strategy(6))
    def test_wedge_star_is_inner_product(self, a, b, g):
        lhs = wedge(a, hodge_star(g, b))
        rhs = form_inner(g, a, b) * (g.sqrt_det * standard_volume(6))
        assert lhs.allclose(rhs, tol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(form_strategy(5, 2), metric_strategy(5))
    def test_against_brute_force(self, a, g):
        assert hodge_star(g, a).allclose(brute_hodge(g, a), tol=1e-9)


class TestFormInner:
    def test_basis_norm(self):
        e12 = KForm.basis(7, (1, 2))
        assert form_inner(I7, e12, e12) == 1.0

    def test_phi_std_norm(self):
        assert abs(form_inner(I7, PHI_STD, PHI_STD) - 7.0) < 1e-13

    def test_tau2_norm_value(self):
        tau2 = KForm(7, 2, {(1, 2): -5.0 / 3.0, (3, 4): -5.0 / 3.0, (5, 6): -10.0 / 3.0})
        assert abs(form_inner(I7, tau2, tau2) - 50.0 / 3.0) < 1e-12

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            form_inner(I7, KForm.basis(7, (1,)), KForm.basis(7, (1, 2)))

    @settings(max_examples=25, deadline=None)
    @given(form_strategy(6, 2), form_strategy(6, 2), metric_strategy(6))
    def test_symmetric_positive(self, a, b, g):
        ab = form_inner(g, a, b)
        assert abs(ab - form_inner(g, b, a)) < 1e-10
        assert form_inner(g, a, a) >= -1e-12

    @settings(max_examples=20, deadline=None)
    @given(form_strategy(5, 3), form_strategy(5, 3), metric_strategy(5))
    def test_against_brute_force(self, a, b, g):
        assert abs(form_inner(g, a, b) - brute_inner(g, a, b)) < 1e-8


def _random_metric(rng, n, definite=True):
    """Q diag(d) Q^T with |d| in [0.5, 2]: conditioned well, of either signature."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.5, 2.0, n)
    if not definite:
        d[: max(1, n // 2)] *= -1.0
    return Metric((q * d) @ q.T)


@pytest.mark.parametrize("dim, degree", [(n, k) for n in range(1, 9) for k in range(n + 1)])
def test_star_and_inner_against_compound_gram(dim, degree):
    """hodge_star and form_inner in every (n, k), both branches of the dense
    kernel, against the compound Gram matrix of the metric inverse."""
    rng = np.random.default_rng(1000 * dim + degree)
    count = len(multi_indices(dim, degree))
    for definite in (True, False):
        g = _random_metric(rng, dim, definite)
        assert g.positive_definite == definite
        a = KForm.from_vector(dim, degree, rng.uniform(-3, 3, count))
        b = KForm.from_vector(dim, degree, rng.uniform(-3, 3, count))
        gram_b = compound_matrix(g.inverse, degree) @ b.to_vector()
        scale = np.linalg.norm(a.to_vector()) * np.linalg.norm(gram_b)
        assert abs(form_inner(g, a, b) - compound_inner(g, a, b)) <= 1e-13 * scale
        if definite:
            want = compound_star(g, a)
            assert hodge_star(g, a).allclose(want, tol=1e-13 * want.sup_norm())


class TestMetric:
    def test_identity(self):
        g = Metric.identity(4)
        assert g.positive_definite
        assert g.det == 1.0
        assert g.leading_minors() == [1.0, 1.0, 1.0, 1.0]

    def test_symmetrization(self):
        g = Metric(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert np.allclose(g.g, [[2.0, 0.5], [0.5, 2.0]])

    def test_indefinite_flagged(self):
        g = Metric(np.diag([1.0, -1.0]))
        assert not g.positive_definite

    @pytest.mark.parametrize("scale", [1e-80, 1e-50, 1e-10, 1e50, 1e80])
    def test_inverse_and_volume_at_any_scale(self, scale):
        # det g under- or overflows at all but 1e-10; g^-1 and sqrt(det g) do not
        base = np.eye(7) + 0.1 * np.ones((7, 7))
        g, ref = Metric(scale * base), Metric(base)
        assert g.positive_definite
        np.testing.assert_allclose(g.inverse, ref.inverse / scale, rtol=1e-13)
        assert math.isclose(g.sqrt_det, ref.sqrt_det * scale ** 3.5, rel_tol=1e-13)

    def test_singular_has_no_inverse(self):
        assert Metric(np.diag([1.0, 0.0, 2.0])).inverse is None
        tiny_indefinite = Metric(1e-200 * np.diag([1.0, -1.0, 2.0]))
        assert not tiny_indefinite.positive_definite
        np.testing.assert_allclose(tiny_indefinite.inverse,
                                   1e200 * np.diag([1.0, -1.0, 0.5]), rtol=1e-15)
