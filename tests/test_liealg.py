import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lab.catalog import catalog, catalog_names
from g2lab.curvature import rank_one_extension
from g2lab.exterior import KForm, Metric, form_inner, multi_indices, wedge
from g2lab.liealg import (LieAlgebra, _derivation_equations, ce_diff, derivation_residual,
                          derivation_space, jacobi_residual)
from g2lab.su3 import SU3Structure, g2_product

from conftest import SEMISIMPLE_PLUS_R4, form_strategy, metric_strategy, semisimple_plus_r4
from oracles import codifferential, leibniz_diff_matrix, loop_derivation_equations

N2 = catalog("n2").algebra
S_EXT = catalog("s_ext_h2").algebra
H2 = catalog("h2").algebra
I7 = Metric.identity(7)

NILPOTENT_NAMES = tuple(f"n{i}" for i in range(1, 13))

# dims of g, [g,g], [g,[g,g]], ... of every catalog algebra, recorded from the
# implementation that took a second SVD at each level for the basis
LOWER_CENTRAL_SERIES = {
    "n1": [7, 0], "n2": [7, 2, 0], "n3": [7, 3, 0], "n4": [7, 3, 1, 0],
    "n5": [7, 3, 1, 0], "n6": [7, 4, 2, 0], "n7": [7, 4, 2, 0],
    "n8": [7, 5, 4, 2, 1, 0], "n9": [7, 5, 4, 2, 1, 0], "n10": [7, 4, 2, 1, 0],
    "n11": [7, 4, 3, 1, 0], "n12": [7, 4, 1, 0], "n12_modified_basis": [7, 4, 1, 0],
    "h1": [6, 3, 2, 1, 0], "h2": [6, 2, 0], "s_ext_h2": [7, 6, 6], "std_g2": [7, 0],
}


class TestCeDiff:
    def test_n2_generator(self):
        assert ce_diff(N2, KForm.basis(7, (5,))) == KForm.basis(7, (1, 2))

    def test_closed_generator_product(self):
        assert ce_diff(N2, KForm.basis(7, (1, 2))).is_zero()

    def test_s_extension_generator(self):
        got = ce_diff(S_EXT, KForm.basis(7, (5,)))
        expected = KForm(7, 2, {(1, 3): 1.0, (2, 4): -1.0, (5, 7): 1.0})
        assert got.allclose(expected, tol=0)

    def test_top_degree_is_zero(self):
        top = KForm.basis(7, tuple(range(1, 8)))
        assert ce_diff(N2, top).degree == 8
        assert ce_diff(N2, top).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(NILPOTENT_NAMES + ("s_ext_h2",)), form_strategy(7, 2),
           form_strategy(7, 3))
    def test_d_squared_zero(self, name, a, b):
        algebra = catalog(name).algebra
        assert ce_diff(algebra, ce_diff(algebra, a)).norm() < 1e-12 * max(1.0, a.norm())
        assert ce_diff(algebra, ce_diff(algebra, b)).norm() < 1e-12 * max(1.0, b.norm())

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(("n2", "n4", "n12_modified_basis", "s_ext_h2")),
           form_strategy(7, 2), form_strategy(7, 2))
    def test_leibniz(self, name, a, b):
        algebra = catalog(name).algebra
        left = ce_diff(algebra, wedge(a, b))
        right = wedge(ce_diff(algebra, a), b) + wedge(a, ce_diff(algebra, b))
        assert left.allclose(right, tol=1e-10)


def _assert_diff_matches_leibniz(algebra):
    for k in range(algebra.dim + 1):
        got, want = algebra.diff_matrix(k), leibniz_diff_matrix(algebra, k)
        assert got.shape == want.shape
        assert np.array_equal(got, want), k


def _dyadic_algebra(dim):
    """Structure data with coefficients in (1/4)Z; Jacobi is not required."""
    count = len(multi_indices(dim, 2))
    coeffs = st.lists(st.integers(min_value=-8, max_value=8), min_size=count, max_size=count)
    return st.lists(coeffs, min_size=dim, max_size=dim).map(lambda rows: LieAlgebra(
        [KForm.from_vector(dim, 2, np.array(row) / 4.0) for row in rows]))


class TestDiffMatrixAgainstLeibniz:
    """The table-built differential matrices against the Leibniz expansion
    through KForm sums and dict-loop wedges (tests/oracles.leibniz_diff_matrix),
    entry for entry."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        _assert_diff_matches_leibniz(catalog(name).algebra)

    @pytest.mark.parametrize("name", ["h1", "h2"])
    def test_g2_product(self, name):
        omega = KForm(6, 2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0})
        psi = KForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0})
        _assert_diff_matches_leibniz(
            g2_product(SU3Structure(catalog(name).algebra, omega, psi)).algebra)

    def test_rank_one_extension(self):
        n6 = catalog("n6").algebra
        for D in (np.diag([0.5, 2.0, 2.0, 2.5, 2.5, 3.0, 3.0]), sum(derivation_space(n6))):
            _assert_diff_matches_leibniz(rank_one_extension(n6, D))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=9).flatmap(_dyadic_algebra))
    def test_dyadic_algebras(self, algebra):
        _assert_diff_matches_leibniz(algebra)


class TestCatalogBuilds:
    def test_cold_lookup_builds_one_algebra(self, monkeypatch):
        built = []

        class Counting(LieAlgebra):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        # the package exports the function `catalog` under the module's name
        for module in ("g2lab.liealg", "g2lab.inputfmt"):
            monkeypatch.setattr(importlib.import_module(module), "LieAlgebra", Counting)
        monkeypatch.setattr(importlib.import_module("g2lab.catalog"), "_cache", {})
        entry = catalog("n6")
        assert len(built) == 1
        assert entry.algebra.name == "n6"


class TestJacobi:
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_entries_close(self, name):
        assert jacobi_residual(catalog(name).algebra) < 1e-12

    def test_corrupted_n2_fails(self):
        z = KForm.zero(7, 2)
        corrupted = LieAlgebra([z, z, z, z, KForm.basis(7, (1, 2)),
                                KForm.basis(7, (1, 3)) + KForm.basis(7, (4, 5)), z])
        assert jacobi_residual(corrupted) > 0.5


class TestCodifferential:
    def test_zero_form(self):
        assert codifferential(N2, I7, KForm(7, 0, {(): 3.0})).is_zero()

    def test_closed_volume_on_unimodular(self):
        top = KForm.basis(7, tuple(range(1, 8)))
        assert codifferential(N2, I7, top).is_zero(tol=1e-14)

    def test_delta_tau1_on_extension(self):
        tau1 = KForm(7, 1, {(7,): -1.0 / 3.0})
        got = codifferential(S_EXT, I7, tau1)
        assert abs(got.coefficient(()) - (-4.0 / 3.0)) < 1e-13

    def test_delta_phi2(self):
        # hand-expanded: delta phi2 = e26 - e35 for the identity inner product
        phi2 = catalog("n2").forms["phi"]
        got = codifferential(N2, I7, phi2)
        assert got.allclose(KForm(7, 2, {(2, 6): 1.0, (3, 5): -1.0}), tol=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(NILPOTENT_NAMES), form_strategy(7, 2), form_strategy(7, 3),
           metric_strategy(7))
    def test_adjoint_on_unimodular(self, name, a, b, g):
        algebra = catalog(name).algebra
        assert algebra.is_unimodular()
        lhs = form_inner(g, ce_diff(algebra, a), b)
        rhs = form_inner(g, a, codifferential(algebra, g, b))
        scale = max(1.0, a.norm() * b.norm())
        assert abs(lhs - rhs) < 1e-8 * scale

    def test_not_adjoint_on_nonunimodular(self):
        assert not S_EXT.is_unimodular()


class TestDerivations:
    def test_abelian_has_full_space(self):
        abelian = catalog("n1").algebra
        assert len(derivation_space(abelian)) == 49

    def test_n2_soliton_derivation(self):
        D = np.diag([1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 2.0])
        assert derivation_residual(N2, D) < 1e-14

    def test_h2_soliton_derivation(self):
        D = np.diag([0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        assert derivation_residual(H2, D) < 1e-14

    def test_non_derivation_detected(self):
        D = np.zeros((7, 7))
        D[0, 1] = 1.0
        assert derivation_residual(N2, D) > 0.1

    def test_space_members_are_derivations(self):
        for D in derivation_space(N2):
            assert derivation_residual(N2, D) < 1e-10

    @pytest.mark.parametrize("name", catalog_names())
    def test_equations_match_row_loop(self, name):
        algebra = catalog(name).algebra
        got = _derivation_equations(algebra)
        want = loop_derivation_equations(algebra)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name,count", [
        ("n1", 49), ("n2", 27), ("n3", 25), ("n4", 19), ("n5", 18), ("n6", 19),
        ("n7", 17), ("n8", 12), ("n9", 11), ("n10", 13), ("n11", 12), ("n12", 15),
        ("n12_modified_basis", 15), ("h1", 10), ("h2", 16), ("s_ext_h2", 14),
        ("std_g2", 49),
    ])
    def test_dimension_snapshot(self, name, count):
        algebra = catalog(name).algebra
        ders = derivation_space(algebra)
        assert len(ders) == count
        for D in ders:
            assert derivation_residual(algebra, D) < 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_small_abelian_has_full_space(self, dim):
        # below dimension 3 there are fewer equations than unknowns
        abelian = LieAlgebra([KForm.zero(dim, 2)] * dim)
        assert len(derivation_space(abelian)) == dim * dim


class TestBracketConventions:
    def test_n2_bracket(self):
        # d e^5 = e^{12}  <->  [e1, e2] = -e5
        assert np.allclose(N2.bracket[0, 1], [0, 0, 0, 0, -1, 0, 0])

    def test_bracket_antisymmetry(self):
        assert np.allclose(N2.bracket, -np.transpose(N2.bracket, (1, 0, 2)))

    def test_lower_central_series(self):
        assert N2.lower_central_series_dims() == [7, 2, 0]
        assert catalog("n6").algebra.lower_central_series_dims() == [7, 4, 2, 0]
        # the solvable extension is not nilpotent: the series stabilizes
        assert catalog("s_ext_h2").algebra.lower_central_series_dims()[-1] == 6

    @pytest.mark.parametrize("name", catalog_names() + tuple(SEMISIMPLE_PLUS_R4))
    def test_ad_traces(self, name):
        # the Killing form tr(ad_i ad_j) and the trace vector tr ad_{e_i}, with
        # (ad_i)_km = c_imk, against einsum; read-only, and h decides unimodularity
        algebra = (semisimple_plus_r4(name) if name in SEMISIMPLE_PLUS_R4
                   else catalog(name).algebra)
        killing, h = algebra._ad_traces
        c = algebra.bracket
        want = np.einsum("imk,jkm->ij", c, c)
        assert np.abs(killing - want).max() <= 1e-15 * max(1.0, np.abs(want).max())
        assert np.array_equal(killing, killing.T)
        assert np.array_equal(h, np.einsum("ijj->i", c))
        assert not killing.flags.writeable and not h.flags.writeable
        assert algebra.is_unimodular() == (name != "s_ext_h2")

    def test_killing_forms_of_so3_and_sl2(self):
        k_so3 = semisimple_plus_r4("so3+R4")._ad_traces[0]
        k_sl2 = semisimple_plus_r4("sl2+R4")._ad_traces[0]
        assert np.array_equal(k_so3[:3, :3], -2.0 * np.eye(3))
        assert np.array_equal(k_sl2[:3, :3], [[8.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
        assert not k_so3[3:].any() and not k_sl2[3:].any()

    def test_lower_central_series_every_catalog_entry(self):
        assert {name: catalog(name).algebra.lower_central_series_dims()
                for name in catalog_names()} == LOWER_CENTRAL_SERIES
