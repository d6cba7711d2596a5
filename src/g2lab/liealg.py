"""Lie algebras given by the differentials of dual basis 1-forms.

An algebra is specified by d e^1, ..., d e^n (2-forms); the bracket is
recovered from d alpha(X, Y) = -alpha([X, Y]).  Sign convention:
d e^k = sum_{i<j} c^k_{ij} e^{ij} corresponds to [e_i, e_j] = -sum_k c^k_{ij} e_k.

The differential matrix of each degree is one scatter of the de^i coefficients
through a table cached per (dimension, degree): d = sum_i de^i ^ iota_{e_i}, joined
from the wedge tables of iota and of de^i ^ ., so only `exterior` knows the index
and sign convention.  Instances carry read-only caches and stay shareable.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exterior import KForm, _read_only, interior_table, multi_indices, wedge_table

#: Relative singular-value cutoff of every rank decision: null spaces, the lower
#: central series and whether I is a derivation in the soliton fit.
_RANK_CUTOFF = 1e-10


class LieAlgebra:
    """A Lie algebra from d e^1, ..., d e^n, with its bracket and differential
    matrices.  `_ad_traces` is (K, h), the Killing form K_ij = tr(ad_i ad_j)
    and the trace vector h_i = tr ad_{e_i}, read-only, built with the bracket.
    Immutable and shareable; derived data that only some callers need sits in
    a private slot that is None until its first use fills it (`_line`, the
    trivial line extension that `su3.g2_product` attaches)."""

    __slots__ = ("dim", "dual_differential", "bracket", "name", "_ad_traces", "_diff", "_line")

    def __init__(self, dual_differential, name=None):
        duals = tuple(dual_differential)
        n = len(duals)
        if n == 0:
            raise ValueError("empty structure data")
        for i, form in enumerate(duals):
            if form.dim != n or form.degree != 2:
                raise ValueError(f"d e{i + 1} must be a 2-form in dimension {n}")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "dual_differential", duals)
        object.__setattr__(self, "name", name)

        # row k of `weights` holds the coefficients of d e^k; with e^a ^ e^b = s e^P,
        # [e_a, e_b] = -sum_k s c^k_P e_k (0.0 - keeps a zero bracket +0.0)
        weights = np.stack([form.to_vector() for form in duals])
        a, b, pair, s = wedge_table(n, 1, 1)
        bracket = np.zeros((n, n, n))
        bracket[a, b] = 0.0 - s[:, None] * weights[:, pair].T
        bracket.setflags(write=False)
        object.__setattr__(self, "bracket", bracket)
        # (ad_i)_km = c_imk, so tr(ad_i ad_j) = sum_km c_imk c_jkm; K symmetrised
        killing = bracket.transpose(0, 2, 1).reshape(n, n * n) @ bracket.reshape(n, n * n).T
        object.__setattr__(self, "_ad_traces", _read_only((killing + killing.T) / 2.0,
                                                          np.einsum("ijj->i", bracket)))

        weights = weights.reshape(-1)
        diff = []
        for k in range(n + 1):
            bins, widx, sg = _diff_table(n, k)
            shape = (len(multi_indices(n, k + 1)), len(multi_indices(n, k)))
            mat = np.bincount(bins, weights=sg * weights[widx],
                              minlength=shape[0] * shape[1]).reshape(shape)
            mat.setflags(write=False)
            diff.append(mat)
        object.__setattr__(self, "_diff", tuple(diff))
        object.__setattr__(self, "_line", None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def diff_matrix(self, degree):
        """Matrix of the differential on degree-`degree` coefficient vectors."""
        return self._diff[degree]

    def is_unimodular(self):
        return bool(np.all(np.abs(self._ad_traces[1]) <= 1e-12))

    def lower_central_series_dims(self):
        """Dimensions of g >= [g,g] >= [g,[g,g]] >= ... until it stabilizes."""
        n = self.dim
        current = np.eye(n)
        dims = [n]
        while True:
            prods = np.einsum("ijk,ja->iak", self.bracket, current).reshape(n * current.shape[1], n)
            rank, vh = _rank(prods)
            dims.append(rank)
            if rank == 0 or rank == dims[-2]:
                break
            current = vh[:rank].T
        return dims

    def __repr__(self):
        label = self.name or f"dim={self.dim}"
        return f"LieAlgebra({label})"


@lru_cache(maxsize=None)
def _diff_table(n, k):
    """COO table (bin, weight, sign) of d = sum_i de^i ^ iota_{e_i} on k-forms, a
    join of the interior table, iota_{e_i} e^I = s e^J, and a wedge table,
    e^P ^ e^J = s' e^out.  `bin` is row * C(n, k) + column, `weight` indexes the
    concatenated de^i vectors; the terms come column by column, in increasing i."""
    if k == 0:
        return _read_only(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    j, i, col, s = interior_table(n, k)
    pair, pair_j, row, s2 = wedge_table(n, 2, k - 1)
    # each J meets equally many pairs: row m of `join` holds the pair rows of J = j[m]
    join = np.argsort(pair_j, kind="stable").reshape(len(multi_indices(n, k - 1)), -1)[j]
    order = np.argsort(np.repeat(col * n + i, join.shape[1]), kind="stable")
    return _read_only((row[join] * len(multi_indices(n, k)) + col[:, None]).reshape(-1)[order],
                      (i[:, None] * len(multi_indices(n, 2)) + pair[join]).reshape(-1)[order],
                      (s[:, None] * s2[join]).reshape(-1)[order])


def ce_diff(algebra, a):
    """Chevalley-Eilenberg differential; linear, Leibniz, d^2 = 0 iff Jacobi."""
    if a.dim != algebra.dim:
        raise ValueError(f"dimension mismatch: algebra {algebra.dim}, form {a.dim}")
    if a.degree >= algebra.dim:
        return KForm.zero(a.dim, a.degree + 1)
    return KForm.from_vector(a.dim, a.degree + 1, algebra.diff_matrix(a.degree) @ a.to_vector())


def jacobi_residual(algebra):
    """max_i || d(d e^i) ||; zero (to roundoff) exactly when Jacobi holds."""
    return max(ce_diff(algebra, de).norm() for de in algebra.dual_differential)


def derivation_residual(algebra, D):
    """max over basis pairs of || D[x,y] - [Dx,y] - [x,Dy] ||."""
    D = np.asarray(D, dtype=float)
    B = algebra.bracket
    n = algebra.dim
    lhs = B @ D.T                                             # sum_m B_ijm D_km
    rhs = (D.T @ B.reshape(n, -1)).reshape(B.shape) + D.T @ B  # D_mi B_mjk + D_mj B_imk
    return float(np.max(np.linalg.norm(lhs - rhs, axis=2)))


@lru_cache(maxsize=None)
def _derivation_indices(n):
    # (i, j, p, k): the pairs i < j, their row blocks p and the output index k
    i, j = np.triu_indices(n, 1)
    return _read_only(i, j, np.arange(len(i)), np.arange(n))


def _derivation_equations(algebra):
    """Rows (i<j, k) of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] = 0, linear in the
    entries of D, as an (n(n-1)/2 n) x n^2 matrix."""
    n = algebra.dim
    B = algebra.bracket
    i, j, p, k = _derivation_indices(n)
    eqs = np.zeros((len(i), n, n, n))
    eqs[:, k, k, :] = B[i, j][:, None, :]              # D[x,y] term: c^m_{ij} D_{km}
    eqs[p, :, :, i] -= B[:, j, :].transpose(1, 2, 0)   # [Dx,y] term: D_{mi} c^k_{mj}
    eqs[p, :, :, j] -= B[i].transpose(0, 2, 1)         # [x,Dy] term: D_{mj} c^k_{im}
    return eqs.reshape(len(i) * n, n * n)


def _rank(mat):
    """(rank, vh) of `mat` by its SVD, counting the singular values above
    `_RANK_CUTOFF * max(s0, 1)`; the rows of vh past the rank are an orthonormal
    null-space basis, as the SVD is full when a thin one would lose some."""
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return int((s > _RANK_CUTOFF * max(s[0] if s.size else 0.0, 1.0)).sum()), vh


def _derivation_basis(algebra):
    """Orthonormal basis of the space of derivations as the rows of an r x n^2
    array (row-major n x n matrices): the null space of the derivation
    equations, which are linear in the entries of D."""
    eqs = _derivation_equations(algebra)
    rank, vh = _rank(eqs[np.any(eqs, axis=1)])  # a zero row constrains nothing
    return vh[rank:]


def derivation_space(algebra):
    """Orthonormal basis of the space of derivations, as n x n matrices."""
    n = algebra.dim
    return [v.reshape(n, n) for v in _derivation_basis(algebra)]
