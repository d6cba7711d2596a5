import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lab.catalog import catalog
from g2lab.exterior import (MAX_DIM, KForm, Metric, _cholesky_diagonal, _complement,
                            _complement_gather, _compound_apply, _compound_dense, _dense,
                            _dense_tables, _index_arrays, _inner, _interior_vec, _inverse,
                            _line_positions, complement_data, form_inner, hodge_star,
                            index_positions, interior_table, multi_indices, wedge, wedge_matrix,
                            wedge_table)
from g2lab.g2core import _codifferential_table, _pairing_table, _phi_gather_table
from g2lab.liealg import _derivation_indices, _diff_table

from conftest import form_strategy, metric_strategy
from oracles import (brute_hodge, brute_inner, brute_interior, brute_wedge, compound_inner,
                     compound_matrix, compound_star, dict_wedge, interior, loop_complement_data,
                     loop_dense_tables, loop_wedge_table, transposed_view_compound_dense)

PHI_STD = catalog("std_g2").forms["phi"]
I7 = Metric.identity(7)


class TestKForm:
    def test_canonicalization_sorts_with_sign(self):
        a = KForm(7, 2, {(2, 1): 3.0})
        assert a.coefficient((1, 2)) == -3.0
        assert a.coefficient((2, 1)) == 3.0

    def test_repeated_index_drops(self):
        assert KForm(7, 2, {(3, 3): 5.0}).is_zero()

    def test_small_entries_are_kept(self):
        src = np.array([1e-20, -1e-20, math.nan, -0.0, 0.0, 5e-324, -1e-300])
        form = KForm.from_vector(7, 1, src)
        v = form.to_vector()
        assert not np.shares_memory(v, src)
        assert v.tolist()[:2] == [1e-20, -1e-20] and math.isnan(v[2])
        assert v.tolist()[5:] == [5e-324, -1e-300]
        assert not np.signbit(v[3]) and not np.signbit(v[4])
        assert list(form.coeffs) == [(1,), (2,), (3,), (6,), (7,)]
        assert not KForm(7, 1, {(1,): 1e-20}).is_zero()

    def test_vector_round_trip(self):
        vec = PHI_STD.to_vector()
        assert KForm.from_vector(7, 3, vec).allclose(PHI_STD, tol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_from_vector_matches_canonical_constructor(self, seed):
        rng = np.random.default_rng(seed)
        edge = [1e-13, -1e-13, 1e-20, -5e-324, -0.0, math.nan]
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
                # bit for bit: NaN is stored, and NaN != NaN in a dict compare
                assert got.to_vector().tobytes() == want.to_vector().tobytes()
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

    def test_to_vector_is_read_only(self):
        vec = PHI_STD.to_vector()
        with pytest.raises(ValueError):
            vec[0] = 5.0
        with pytest.raises(ValueError):
            vec += 1.0
        assert PHI_STD.coefficient((1, 2, 7)) == 1.0

    @pytest.mark.parametrize("values", [[1.0, -2.0, 3.0, 0.5, -0.25, 4.0, 7.0],
                                        [1.0, 0.0, 1e-14, math.nan, -0.0, 2.0, -3.0]])
    def test_from_vector_does_not_alias_its_input(self, values):
        src = np.array(values)
        form = KForm.from_vector(7, 1, src)
        before = form.to_vector().tobytes()
        src[:] = 9.0
        assert form.to_vector().tobytes() == before
        assert form.coefficient((1,)) == 1.0

    @pytest.mark.parametrize("value", [1e-13, -1e-13, 2e-13, -2e-13, math.nan, -0.0, 0.0,
                                       math.inf, -1.5])
    def test_dict_and_vector_construction_agree_bit_for_bit(self, value):
        for dim, degree in ((7, 3), (6, 2), (4, 0), (3, 5)):
            keys = multi_indices(dim, degree)
            vec = np.linspace(-1.0, 1.0, len(keys)) + 0.5  # distinct, nonzero
            vec[::3] = value
            via_dict = KForm(dim, degree, dict(zip(keys, vec)))
            via_vector = KForm.from_vector(dim, degree, vec)
            assert via_dict.to_vector().tobytes() == via_vector.to_vector().tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_no_negative_zero_is_stored(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.uniform(-1.0, 1.0, 35)
        vec[rng.random(35) < 0.4] = 0.0
        f = KForm.from_vector(7, 3, vec)
        for got in (f, -f, f - f, 0.0 * f, -0.0 * f, f * 1e-20, KForm(7, 3, {(1, 2, 3): -0.0})):
            v = got.to_vector()
            assert not np.any(np.signbit(v) & (v == 0))
        assert (f - f).is_zero() and (0.0 * f).is_zero()

    def test_equality_tolerance(self):
        assert PHI_STD == PHI_STD + KForm(7, 3, {(1, 2, 3): 1e-13})

    def test_bad_index_raises(self):
        with pytest.raises(ValueError):
            KForm(7, 2, {(1, 8): 1.0})

    def test_immutability(self):
        with pytest.raises(AttributeError):
            PHI_STD.degree = 2


class TestCachedTables:
    # explicit ids, so that editing the list renames no other case; the first
    # fourteen keep the positional ids they had, so no existing test id changes
    @pytest.mark.parametrize("table, args", [
        pytest.param(_index_arrays, (7, 3), id="_index_arrays-args0"),
        pytest.param(wedge_table, (7, 2, 3), id="wedge_table-args1"),
        pytest.param(_complement_gather, (7, 3), id="_complement_gather-args2"),
        pytest.param(interior_table, (7, 3), id="interior_table-args3"),
        pytest.param(_dense_tables, (7, 3), id="_dense_tables-args4"),
        pytest.param(_complement_gather, (7, 5), id="_complement_gather-args5"),
        pytest.param(_dense_tables, (7, 2), id="_dense_tables-args6"),
        pytest.param(_diff_table, (7, 3), id="_diff_table-args7"),
        pytest.param(_diff_table, (7, 0), id="_diff_table-args8"),
        pytest.param(_derivation_indices, (7,), id="_derivation_indices-args9"),
        pytest.param(_line_positions, (7, 3), id="_line_positions-args10"),
        pytest.param(_pairing_table, (), id="_pairing_table-args11"),
        pytest.param(_phi_gather_table, (), id="_phi_gather_table-args12"),
        pytest.param(_codifferential_table, (), id="_codifferential_table-args13"),
        pytest.param(interior_table, (7, 4), id="interior_table-7-4")])
    def test_tables_are_read_only(self, table, args):
        # every later caller shares the cached arrays; a write must not corrupt them
        for array in table(*args):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_index_positions_is_read_only(self):
        with pytest.raises(TypeError):
            index_positions(7, 2)[(1, 2)] = 5
        assert index_positions(7, 2)[(1, 2)] == 0


class TestWedge:
    def test_basis_case(self):
        assert wedge(KForm.basis(7, (1,)), KForm.basis(7, (2,))) == KForm.basis(7, (1, 2))

    def test_repeated_index_is_zero(self):
        e12 = KForm.basis(7, (1, 2))
        assert wedge(e12, e12).is_zero()

    def test_phi_wedge_star_phi(self):
        # frozen from the brute-force expansion
        got = wedge(PHI_STD, hodge_star(I7, PHI_STD))
        assert got.allclose(7.0 * KForm.basis(7, range(1, 8)), tol=1e-12)
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


@pytest.mark.parametrize("dim", range(1, 8))
def test_wedge_matrix_columns_match_dict_loop(dim):
    """Column I of wedge_matrix(n, k, l, b) is e^I ^ b, bit for bit, for every (k, l)."""
    rng = np.random.default_rng(50 + dim)
    for k in range(dim + 1):
        for l in range(dim + 1):
            b = KForm.from_vector(dim, l, rng.uniform(0.5, 2.0, len(multi_indices(dim, l))))
            mat = wedge_matrix(dim, k, l, b.to_vector())
            assert mat.shape == (len(multi_indices(dim, k + l)), len(multi_indices(dim, k)))
            for col, key in enumerate(multi_indices(dim, k)):
                want = dict_wedge(KForm.basis(dim, key), b).to_vector()
                assert mat[:, col].tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_interior_vec_against_dense_contraction(self, degree):
        # the scatter that `_torsion` calls, against the dense contraction
        rng = np.random.default_rng(degree)
        for _ in range(5):
            v = rng.uniform(-2.0, 2.0, 7)
            a = rng.uniform(-3.0, 3.0, len(multi_indices(7, degree)))
            want = brute_interior(v, KForm.from_vector(7, degree, a)).to_vector()
            assert np.abs(_interior_vec(7, degree, v, a) - want).max() <= 1e-13


@pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
def test_complement_data_matches_loop(dim):
    """The complement columns of wedge_table equal the tuple-by-tuple loop,
    array for array and dtype for dtype, in every degree."""
    for degree in range(dim + 1):
        for got, want in zip(complement_data(dim, degree), loop_complement_data(dim, degree)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
def test_complement_gather_is_the_scatter(dim):
    """`_complement`, the gather form of the signed complement, equals the
    scatter through complement_data bit for bit, in every degree."""
    rng = np.random.default_rng(dim)
    for degree in range(dim + 1):
        pos, s = complement_data(dim, degree)
        v = rng.standard_normal(len(pos))
        want = np.empty(len(pos))
        want[pos] = s * v
        assert np.array_equal(_complement(v, dim, degree), want)


def _assert_tables_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dim", range(1, 9))
def test_dense_tables_match_loop(dim):
    """The vectorised dense-tensor tables equal the ordering-by-ordering loop,
    entry order and dtype included, in every degree."""
    for degree in range(dim + 1):
        _assert_tables_equal(_dense_tables(dim, degree), loop_dense_tables(dim, degree))


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5])
def test_dense_tables_match_loop_at_max_dim(degree):
    _assert_tables_equal(_dense_tables(MAX_DIM, degree), loop_dense_tables(MAX_DIM, degree))


@pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
def test_complement_matrix_is_the_scatter(dim):
    """The dense tensor of a signed complement of degree 2, `_dense` after
    `_complement` (the path of the 5-form star and of `_codifferential_table`
    in dimension 7), is the scatter through `complement_data` and the
    loop-built dense tables, bit for bit, up to MAX_DIM."""
    v = np.random.default_rng(200 + dim).standard_normal(len(multi_indices(dim, dim - 2)))
    pos, s = complement_data(dim, dim - 2)
    complement = np.empty(len(pos))
    complement[pos] = s * v
    src, dst, sgn, _ = loop_dense_tables(dim, 2)
    want = np.zeros(dim * dim)
    want[dst] = sgn * complement[src]
    assert np.array_equal(_dense(_complement(v, dim, dim - 2), dim, 2), want)


@pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
def test_line_positions_match_index_loop(dim):
    """The tuples of 1..dim without dim, then those ending in dim, located
    one tuple at a time through `index_positions`."""
    for degree in range(dim + 2):
        pos = index_positions(dim, degree)
        base = [pos[key] for key in multi_indices(dim - 1, degree)]
        line = [pos[key + (dim,)] for key in multi_indices(dim - 1, degree - 1)] if degree else []
        got = _line_positions(dim, degree)
        assert [a.tolist() for a in got] == [base, line]
        assert all(a.dtype == np.intp for a in got)


@pytest.mark.parametrize("dim", range(1, 9))
def test_compound_results_are_the_gathered_tensor(dim):
    """`_compound_apply` equals the compound's dense tensor gathered back
    through `_dense_tables`, bit for bit, in every degree; in degrees 0 and 1,
    where it skips it, that gather is the identity."""
    rng = np.random.default_rng(100 + dim)
    a = rng.standard_normal((dim, dim))
    M = a @ a.T + np.eye(dim)
    for degree in range(dim + 1):
        v = rng.standard_normal(len(multi_indices(dim, degree)))
        flat = _dense_tables(dim, degree)[3]
        assert np.array_equal(_compound_apply(M, v, degree),
                              _compound_dense(M, _dense(v, dim, degree), degree)[flat])
    for degree in (0, 1):
        assert np.array_equal(_dense_tables(dim, degree)[3], np.arange(dim ** degree))


@pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
def test_compound_matches_the_transposed_view_kernel(dim):
    """`_compound_dense`, whose last product reads M^T as a contiguous copy,
    bit for bit against the same kernel on the transposed view
    (`oracles.transposed_view_compound_dense`), for a general and a symmetric
    M in every degree >= 2 whose dense tensor has at most 10^6 entries: every
    degree up to dimension 7 and up to degree 6 beyond, past dim / 2, the
    highest degree a star or inner product takes."""
    rng = np.random.default_rng(200 + dim)
    a = rng.standard_normal((dim, dim))
    for degree in range(2, dim + 1):
        if dim ** degree > 10 ** 6:
            break
        t = _dense(rng.standard_normal(len(multi_indices(dim, degree))), dim, degree)
        for M in (a, a @ a.T + np.eye(dim)):
            assert np.array_equal(_compound_dense(M, t, degree),
                                  transposed_view_compound_dense(M, t, degree))


@pytest.mark.parametrize("dim", range(1, 8))
def test_wedge_table_matches_loop(dim):
    """The vectorised wedge table equals the pair-by-pair loop, entry order and
    dtype included, for every (k, l), also past the top degree."""
    for k in range(dim + 2):
        for l in range(dim + 2):
            for got, want in zip(wedge_table(dim, k, l), loop_wedge_table(dim, k, l)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (k, l)


@pytest.mark.parametrize("k,l", [(0, MAX_DIM), (1, 1), (1, MAX_DIM - 1), (2, 3), (3, 4),
                                 (4, 3), (5, 5), (6, 5)])
def test_wedge_table_matches_loop_at_max_dim(k, l):
    for got, want in zip(wedge_table(MAX_DIM, k, l), loop_wedge_table(MAX_DIM, k, l)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


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
        rhs = form_inner(g, a, b) * (g.sqrt_det * KForm.basis(6, range(1, 7)))
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

    @pytest.mark.parametrize("scale", [1e-44, 1e-45, 1e-50, 1.0, 3.0])
    def test_jacobi_branch_at_small_scale(self, scale):
        # |e^1234|^2 = c^-4 under c I; the Jacobi branch divides by sqrt(det g)
        # = c^3.5 twice, as its square is subnormal at 1e-45 (which cost 9
        # digits) and 0 at 1e-50.  The bound is a few roundings of the
        # volume's product and the compound, as at c = 1 and 3; the reference
        # is exact for the double c
        e = KForm.basis(7, (1, 2, 3, 4))
        got, want = form_inner(Metric(scale * np.eye(7)), e, e), 1 / Fraction(scale) ** 4
        assert abs(Fraction(got) - want) <= 1e-15 * want


def _random_metric(rng, n):
    """Q diag(d) Q^T with d in [0.5, 2]: positive definite, conditioned well."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Metric((q * rng.uniform(0.5, 2.0, n)) @ q.T)


@pytest.mark.parametrize("dim, degree", [(n, k) for n in range(1, 9) for k in range(n + 1)])
def test_star_and_inner_against_compound_gram(dim, degree):
    """hodge_star, and form_inner and `_inner` on coefficient vectors, in every
    (n, k), both branches of the dense kernel, against the compound Gram
    matrix of the metric inverse."""
    rng = np.random.default_rng(1000 * dim + degree)
    count = len(multi_indices(dim, degree))
    g = _random_metric(rng, dim)
    a = KForm.from_vector(dim, degree, rng.uniform(-3, 3, count))
    b = KForm.from_vector(dim, degree, rng.uniform(-3, 3, count))
    gram_b = compound_matrix(g.inverse, degree) @ b.to_vector()
    scale = np.linalg.norm(a.to_vector()) * np.linalg.norm(gram_b)
    for got in (form_inner(g, a, b), _inner(a.to_vector(), b.to_vector(), degree, g)):
        assert abs(got - compound_inner(g, a, b)) <= 1e-13 * scale
    want = compound_star(g, a)
    assert hodge_star(g, a).allclose(want, tol=1e-13 * want.sup_norm())


class TestMetric:
    def test_identity(self):
        g = Metric.identity(4)
        assert g.sqrt_det == 1.0 and np.array_equal(g.inverse, np.eye(4))

    def test_symmetrization(self):
        g = Metric(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert np.allclose(g.g, [[2.0, 0.5], [0.5, 2.0]])

    @pytest.mark.parametrize("scale", [1e-80, 1e-50, 1e-10, 1e50, 1e80])
    def test_inverse_and_volume_at_any_scale(self, scale):
        # det g under- or overflows at all but 1e-10; g^-1 and sqrt(det g) do not
        base = np.eye(7) + 0.1 * np.ones((7, 7))
        g, ref = Metric(scale * base), Metric(base)
        np.testing.assert_allclose(g.inverse, ref.inverse / scale, rtol=1e-13)
        assert math.isclose(g.sqrt_det, ref.sqrt_det * scale ** 3.5, rel_tol=1e-13)

    def test_star_at_small_scale(self):
        # star(e^1) = sqrt(det g) g^11 e^{234567} = 1e-175 * 1e50 e^{234567}:
        # a correct result that only an absolute cut would drop
        got = hodge_star(Metric(1e-50 * np.eye(7)), KForm.basis(7, (1,)))
        want = 1e-125 * KForm.basis(7, range(2, 8))
        assert got.allclose(want, tol=4 * np.finfo(float).eps * 1e-125)
        assert not got.is_zero()

    @pytest.mark.parametrize("matrix, message", [
        (np.diag([1.0, -1.0]), "is not positive definite"),
        (np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0]), "is not positive definite"),
        (np.zeros((7, 7)), "is not positive definite"),
        (np.diag([1.0, 0.0, 2.0]), "is not positive definite"),
        (1e-200 * np.diag([1.0, -1.0, 2.0]), "is not positive definite"),
        # the Cholesky factorisation lets NaN and inf through; the volume does not
        (np.diag([1.0, np.nan, 2.0]), "no finite nonzero volume"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "no finite nonzero volume"),
        (np.diag([1.0, np.inf, 2.0]), "no finite nonzero volume"),
        # positive definite, but sqrt(det g) = 1e-700 underflows
        (1e-200 * np.eye(7), "no finite nonzero volume"),
        (np.ones((2, 3)), "square matrix"),
    ], ids=["indefinite", "lorentzian", "zero", "rank_deficient", "tiny_indefinite", "nan",
            "nan_off_diagonal", "inf", "underflow", "non_square"])
    def test_rejects_not_positive_definite(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            Metric(matrix)


def _spd(n, seed):
    """A seeded n x n symmetric positive definite matrix at a log-uniform
    scale in 1e-150..1e150."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 10.0 ** rng.uniform(-150.0, 150.0) * (a @ a.T + 0.5 * np.eye(n))


def _outcome(call, m):
    # (the value as an array, None) or (None, (exception type, message))
    try:
        return np.asarray(call(m)), None
    except Exception as exc:
        return None, (type(exc), str(exc))


_SPD_FAILURES = {
    "indefinite": np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0]),
    "zero": np.zeros((7, 7)),
    "rank_deficient": np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
    "rank_3": np.arange(21.0).reshape(7, 3) @ np.arange(21.0).reshape(7, 3).T,
    "nan": np.full((7, 7), np.nan),
    "nan_off_diagonal": np.where(np.eye(7) > 0, 1.0, np.nan),
    "inf": np.full((7, 7), np.inf),
    "inf_diagonal": np.diag([np.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    "underflow": 1e-200 * np.eye(7),
    "subnormal": 1e-310 * np.eye(6),
    "overflow": 1e300 * (np.eye(6) + 0.5),
}


class TestSPDFactorisation:
    """`_cholesky_diagonal` and `_inverse` call the LAPACK gufuncs that
    np.linalg.cholesky and np.linalg.inv wrap: the same values bit for bit,
    and the same error where the wrappers raise one.  Warnings are errors in
    this suite, so no RuntimeWarning escapes either."""

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_numpy_at_any_scale(self, n, seed):
        m = _spd(n, 100 * n + seed)
        diag = _cholesky_diagonal(m)
        assert type(diag) is list and np.array_equal(diag, np.linalg.cholesky(m).diagonal())
        inverse = _inverse(m)
        assert inverse.dtype == np.float64 and np.array_equal(inverse, np.linalg.inv(m))

    @pytest.mark.parametrize("name", _SPD_FAILURES)
    @pytest.mark.parametrize("ours, numpys", [
        (_cholesky_diagonal, lambda m: np.linalg.cholesky(m).diagonal()),
        (_inverse, np.linalg.inv),
    ], ids=["cholesky", "inverse"])
    def test_fails_as_numpy_does(self, name, ours, numpys):
        m = _SPD_FAILURES[name]
        got, got_error = _outcome(ours, m)
        want, want_error = _outcome(numpys, m)
        assert got_error == want_error
        if want_error is None:
            assert np.array_equal(got, want, equal_nan=True)

    def test_caller_flags_do_not_leak_in(self):
        # the helpers set their own flags: a caller's errstate changes neither
        # the error nor the silence about overflow and invalid results
        with np.errstate(all="raise"):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                _cholesky_diagonal(-np.eye(7))
            m = _SPD_FAILURES["subnormal"]
            # 1 / 1e-310 overflows, and LAPACK's solve turns the inf into NaN
            assert np.array_equal(_inverse(m), np.linalg.inv(m), equal_nan=True)
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                _inverse(np.zeros((7, 7)))


class TestMetricErrors:
    """Metric's error messages at the inputs the factorisation rejects or lets
    through, each the text that the Metric built on np.linalg gave."""

    @pytest.mark.parametrize("name, message", [
        ("indefinite", "metric is not positive definite"),
        ("zero", "metric is not positive definite"),
        ("rank_deficient", "metric is not positive definite"),
        ("rank_3", "metric is not positive definite"),
        ("nan", "metric has no finite nonzero volume (sqrt(det g) = nan)"),
        ("nan_off_diagonal", "metric has no finite nonzero volume (sqrt(det g) = nan)"),
        ("inf", "metric has no finite nonzero volume (sqrt(det g) = inf)"),
        ("inf_diagonal", "metric has no finite nonzero volume (sqrt(det g) = inf)"),
        ("underflow", "metric has no finite nonzero volume (sqrt(det g) = 0.0)"),
        ("subnormal", "metric has no finite nonzero volume (sqrt(det g) = 0.0)"),
        ("overflow", "metric has no finite nonzero volume (sqrt(det g) = inf)"),
    ])
    def test_message(self, name, message):
        with pytest.raises(ValueError) as info:
            Metric(_SPD_FAILURES[name])
        assert type(info.value) is ValueError and str(info.value) == message
