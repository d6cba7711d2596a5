"""Exterior algebra over a fixed basis e1..en, on coefficient vectors.

A k-form is one read-only float vector over the strictly increasing 1-based
index tuples of length k, in lexicographic order (`multi_indices`), holding
every entry as computed.  Forms are immutable and all operations are pure
functions, so values can be shared freely.

Products scatter through cached COO tables (`wedge_table` for `_wedge_vec`;
`interior_table`, its transpose, for `_interior_vec`).  The metric
operations are compositions of three plain steps: `_complement`, the signed
Hodge complement as one gather; `_dense`, which expands a k-form to its
antisymmetric n^k tensor; and `_compound_dense`, which acts with a matrix
on every index of that tensor (`_compound_apply` gathers the k-form back).
`_star` is the Hodge star and `_inner` the inner product on coefficient
vectors.

Metric matrices are factored here alone, by `_cholesky_diagonal` and
`_inverse`: the LAPACK gufuncs that `np.linalg.cholesky` and `np.linalg.inv`
wrap, without those wrappers' per-call Python.

Dimension is generic but capped at MAX_DIM: all operators here enumerate
the full basis of each degree, which is only sensible for small n.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

MAX_DIM = 10


def sort_with_sign(indices):
    """Insertion-sort an index tuple, tracking the permutation sign.

    Returns (sorted_tuple, sign); sign is 0 when an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def _read_only(*arrays):
    """The arrays, made read-only, as a tuple: every cached table is shared by
    all later callers, so a write into one would corrupt them all."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def multi_indices(dim, degree):
    """All strictly increasing index tuples of the given length, lexicographic."""
    return tuple(itertools.combinations(range(1, dim + 1), degree))


@lru_cache(maxsize=None)
def index_positions(dim, degree):
    """Read-only map from each tuple of `multi_indices(dim, degree)` to its position."""
    return MappingProxyType({idx: p for p, idx in enumerate(multi_indices(dim, degree))})


@lru_cache(maxsize=None)
def _index_arrays(dim, degree):
    # the 0-based tuples of multi_indices(dim, degree) as rows, and their bitmasks
    tuples = multi_indices(dim, degree)
    keys = np.array(tuples, dtype=np.intp).reshape(len(tuples), degree) - 1
    return _read_only(keys, (1 << keys).sum(axis=1))


@lru_cache(maxsize=None)
def _line_positions(dim, degree):
    # positions among the `degree`-tuples of 1..dim of those without dim, which
    # run in the order of the tuples of 1..dim-1, and of those ending in dim,
    # the e^I ^ e^dim for the (degree - 1)-tuples I of 1..dim-1 in their order
    mask = _index_arrays(dim, degree)[1]
    top = 1 << (dim - 1)
    return _read_only(np.flatnonzero(mask < top), np.flatnonzero(mask >= top))


@lru_cache(maxsize=None)
def wedge_table(dim, k, l):
    """COO table (ia, ib, iout, sign) for the wedge Lambda^k x Lambda^l -> Lambda^{k+l}.

    Entries run over the disjoint pairs (a, b) with a outer and b inner, both
    in `multi_indices` order.  The sign of sorting a + b is (-1)^inversions,
    where each b_j contributes the number of a's entries above it.
    """
    ka, ma = _index_arrays(dim, k)
    kb, mb = _index_arrays(dim, l)
    ia, ib = np.nonzero((ma[:, None] & mb[None, :]) == 0)
    above = (ka[:, :, None] > np.arange(dim)).sum(axis=1)  # above[a, j] = #{x in a: x > j}
    inversions = np.take_along_axis(above[ia], kb[ib], axis=1).sum(axis=1)
    _, mout = _index_arrays(dim, k + l)
    out_pos = np.zeros(1 << dim, dtype=np.intp)
    out_pos[mout] = np.arange(len(mout))
    return _read_only(ia, ib, out_pos[ma[ia] | mb[ib]],
                      np.where(inversions % 2 == 1, -1.0, 1.0))


def complement_data(dim, degree):
    """For each increasing `degree`-tuple I, the position of its complement Ic
    among the (dim-degree)-tuples and the sign of the shuffle (I, Ic): the
    (ib, sign) columns of the wedge table, as e^I ^ e^Ic = sign e^{1..dim}."""
    _, pos, _, sign = wedge_table(dim, degree, dim - degree)
    return pos, sign


@lru_cache(maxsize=None)
def _complement_gather(dim, degree):
    # complement_data inverted: (perm, sign) with position J of the
    # (dim-degree)-tuples reading I = Jc, so the signed complement
    # sum_I sign(I, Ic) v_I e^Ic of a degree-k form v is the gather sign * v[perm]
    perm = complement_data(dim, dim - degree)[0]
    return _read_only(perm, complement_data(dim, degree)[1][perm])


def _complement(vec, dim, degree):
    """Signed Hodge complement sum_I sign(I, Ic) v_I e^Ic of a `degree`-form's
    coefficients v, as one gather (`_complement_gather`)."""
    perm, sign = _complement_gather(dim, degree)
    return sign * vec[perm]


def wedge_matrix(dim, k, l, vec_l):
    """Matrix of (.) wedge b acting Lambda^k -> Lambda^{k+l}, for fixed b with coefficients vec_l."""
    ia, ib, iout, sg = wedge_table(dim, k, l)
    shape = (len(multi_indices(dim, k + l)), len(multi_indices(dim, k)))
    return np.bincount(iout * shape[1] + ia, weights=sg * vec_l[ib],
                       minlength=shape[0] * shape[1]).reshape(shape)


def _wedge_vec(dim, k, l, a, b):
    """Coefficients of a ^ b from those of a k-form a and an l-form b: one
    scatter through `wedge_table`, summing each coefficient in (a, b) key order."""
    ia, ib, iout, sg = wedge_table(dim, k, l)
    return np.bincount(iout, weights=sg * a[ia] * b[ib], minlength=len(multi_indices(dim, k + l)))


@lru_cache(maxsize=None)
def interior_table(dim, degree):
    """COO table (row, i, col, sign) of the interior product on `degree`-forms:
    iota_{e_i} e^I = sign e^J with J at `row` and I at `col`.  It is the transpose
    of e^J -> e^J ^ e^i (`wedge_table(dim, degree - 1, 1)`) times (-1)^{degree-1}."""
    row, i, col, sg = wedge_table(dim, degree - 1, 1)
    return _read_only(row, i, col, (-1.0) ** (degree - 1) * sg)


def _interior_vec(dim, degree, v, a):
    """Coefficients of iota_v a from a vector's components v and a `degree`-form's
    coefficients a: one scatter through `interior_table`."""
    row, i, col, sg = interior_table(dim, degree)
    return np.bincount(row, weights=sg * v[i] * a[col],
                       minlength=len(multi_indices(dim, degree - 1)))


def _check_space(dim, degree):
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
    if degree < 0:
        raise ValueError(f"negative degree {degree}")


class KForm:
    """Alternating form of fixed degree, stored as one read-only coefficient
    vector over `multi_indices(dim, degree)`.

    Every entry is stored as given, NaN and roundoff included, except that
    -0.0 is stored as +0.0.  Dict input (`KForm(dim, k, {...})`, `basis`) is
    canonicalized first: keys sorted with sign, repeated indices dropped,
    duplicates merged.  `coeffs` and `items` give the nonzero entries in
    index order.  Degrees above `dim` are allowed and necessarily empty,
    which keeps d and wedge total.
    """

    __slots__ = ("dim", "degree", "_vec")

    def __init__(self, dim, degree, coeffs=None):
        _check_space(dim, degree)
        pos = index_positions(dim, degree)
        vec = [0.0] * len(pos)
        for key, value in (coeffs or {}).items():
            if len(key) != degree:
                raise ValueError(f"index {key} has length {len(key)}, expected {degree}")
            if any(i < 1 or i > dim for i in key):
                raise ValueError(f"index {key} out of range 1..{dim}")
            skey, sign = sort_with_sign(tuple(key))
            if sign:
                vec[pos[skey]] += sign * float(value)
        self._store(dim, degree, np.array(vec))

    def _store(self, dim, degree, vec):
        vec = vec + 0.0  # a copy, with -0.0 made +0.0
        vec.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_vec", vec)

    def __setattr__(self, name, value):
        raise AttributeError("KForm is immutable")

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree, {})

    @classmethod
    def basis(cls, dim, indices):
        """The basis monomial e^{i1...ik} (indices in any order, sign tracked)."""
        return cls(dim, len(indices), {tuple(indices): 1.0})

    @classmethod
    def from_vector(cls, dim, degree, vec):
        """Form with coefficients `vec` over `multi_indices(dim, degree)`.  The
        entries are copied; the input array is not kept."""
        _check_space(dim, degree)
        vec = np.asarray(vec, dtype=float)
        count = len(multi_indices(dim, degree))
        if vec.shape != (count,):
            raise ValueError(f"coefficient vector has shape {vec.shape}, expected ({count},)")
        form = object.__new__(cls)
        form._store(dim, degree, vec)
        return form

    @property
    def coeffs(self):
        """Read-only map of the nonzero coefficients, in index order."""
        keys = multi_indices(self.dim, self.degree)
        nz = np.flatnonzero(self._vec)
        return MappingProxyType(dict(zip([keys[p] for p in nz], self._vec[nz].tolist())))

    def to_vector(self):
        """The stored coefficient vector over `multi_indices(dim, degree)`; read-only."""
        return self._vec

    def coefficient(self, indices):
        """Coefficient on the given index tuple; any order, sign tracked."""
        key, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return 0.0
        p = index_positions(self.dim, self.degree).get(key)
        return sign * (0.0 if p is None else float(self._vec[p]))

    def items(self):
        return self.coeffs.items()

    def norm(self):
        """Euclidean norm of the coefficient vector (basis-dependent)."""
        return math.sqrt(sum((self._vec * self._vec).tolist()))

    def sup_norm(self):
        return float(np.max(np.abs(self._vec), initial=0.0))

    def is_zero(self, tol=0.0):
        return bool(np.all(np.abs(self._vec) <= tol))

    def allclose(self, other, tol=1e-10):
        """Every coefficient within `tol`."""
        if self.dim != other.dim or self.degree != other.degree:
            return False
        return bool(np.all(np.abs(self._vec - other._vec) <= tol))

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.allclose(other, tol=1e-12)

    __hash__ = None

    def __add__(self, other):
        self._check_match(other)
        return KForm.from_vector(self.dim, self.degree, self._vec + other._vec)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KForm.from_vector(self.dim, self.degree, -self._vec)

    def __mul__(self, scalar):
        return KForm.from_vector(self.dim, self.degree, float(scalar) * self._vec)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def wedge(self, other):
        return wedge(self, other)

    def _check_match(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return f"KForm({self.dim}, {self.degree}, 0)"
        terms = " + ".join(f"{v:g}*e{''.join(map(str, k))}" if k else f"{v:g}"
                           for k, v in coeffs.items())
        return f"KForm({self.dim}, {self.degree}, {terms})"


def wedge(a, b):
    """Wedge product; bilinear, graded-commutative.  One scatter through
    `wedge_table`, summing the terms of each coefficient in (a, b) key order."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    n, k, l = a.dim, a.degree, b.degree
    return KForm.from_vector(n, k + l, _wedge_vec(n, k, l, a.to_vector(), b.to_vector()))


def _not_positive_definite(err, flag):
    raise LinAlgError("Matrix is not positive definite")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


# Both run under the floating-point flags np.linalg sets around the same
# gufuncs: LAPACK's failure sets `invalid`, which raises numpy's LinAlgError
# with numpy's message, and overflow, division and underflow pass into the
# result silently.  The decorator form sets them per call at half the cost of
# a `with` block.
@np.errstate(call=_not_positive_definite, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _cholesky_diagonal(m):
    """The diagonal of the lower Cholesky factor of a float64 symmetric
    matrix, as a list: `np.linalg.cholesky`'s values and LinAlgError."""
    return _umath_linalg.cholesky_lo(m, signature="d->d").diagonal().tolist()


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _inverse(m):
    """The inverse of a float64 square matrix: `np.linalg.inv`'s values and
    LinAlgError."""
    return _umath_linalg.inv(m, signature="d->d")


class Metric:
    """Positive definite inner product on the base space as a symmetric
    matrix, with its inverse and sqrt(det g) computed eagerly, so instances
    are freely shareable.  Any other matrix raises ValueError: every Metric
    has an inverse and a volume, and no caller checks again."""

    __slots__ = ("dim", "g", "inverse", "sqrt_det")

    #: every Metric is; kept as an attribute for the reports that state it
    positive_definite = True

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"metric must be a square matrix, got shape {m.shape}")
        g = (m + m.T) / 2.0
        try:
            diag = _cholesky_diagonal(g)
        except LinAlgError:
            raise ValueError("metric is not positive definite") from None
        # sqrt(det g) is the product of the Cholesky diagonal, which stays
        # representable when det g itself under- or overflows; NaN or inf
        # entries, which the factorisation lets through, leave it non-finite
        sqrt_det = math.prod(diag)
        if not 0.0 < sqrt_det < math.inf:
            raise ValueError(f"metric has no finite nonzero volume (sqrt(det g) = {sqrt_det})")
        self._set(g, _inverse(g), sqrt_det)

    @classmethod
    def _from_factors(cls, g, inverse, sqrt_det):
        """Metric from a positive definite symmetric g whose inverse and
        sqrt(det g) the caller already has from its own factorisation."""
        metric = object.__new__(cls)
        metric._set(g, inverse, sqrt_det)
        return metric

    def _set(self, g, inverse, sqrt_det):
        g.setflags(write=False)
        inverse.setflags(write=False)
        object.__setattr__(self, "dim", g.shape[0])
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "sqrt_det", sqrt_det)

    def __setattr__(self, name, value):
        raise AttributeError("Metric is immutable")

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    def __repr__(self):
        return f"Metric(dim={self.dim}, sqrt_det={self.sqrt_det:.6g})"


@lru_cache(maxsize=None)
def _dense_tables(dim, degree):
    # Scatter table of the dense antisymmetric dim^degree tensor of a k-form:
    # for every increasing tuple (source position) and every ordering of it,
    # in `itertools.permutations` order, the flat tensor index and the
    # ordering's sign (the parity of its inversions); plus the flat index of
    # each increasing tuple, to gather the result back.
    keys, _ = _index_arrays(dim, degree)
    perms = list(itertools.permutations(range(degree)))
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), degree)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    weights = dim ** np.arange(degree - 1, -1, -1, dtype=np.intp)
    return _read_only(np.repeat(np.arange(len(keys), dtype=np.intp), len(perms)),
                      (keys[:, perms] @ weights).reshape(-1),
                      np.tile(np.where(inversions % 2 == 1, -1.0, 1.0), len(keys)),
                      keys @ weights)


def _dense(vec, dim, degree):
    """Flat dense antisymmetric dim^degree tensor of a k-form's coefficients;
    a 0- or 1-form is its own."""
    if degree < 2:
        return vec
    src, dst, sgn, _ = _dense_tables(dim, degree)
    t = np.zeros(dim ** degree)
    t[dst] = sgn * vec[src]
    return t


def _compound_dense(M, t, degree):
    """The degree-k compound of the n x n matrix M (the minors det M[I, J])
    on the flat dense tensor t of a k-form (`_dense`), as a flat dense tensor:
    M acts on every index, the leading ones first, then the last two at once,
    with M^T as a contiguous copy (a stacked matmul with the transposed view
    is slower)."""
    n = M.shape[0]
    if degree < 2:  # the compound of degree 1 is M, of degree 0 the number 1
        return M @ t if degree else t
    for j in range(degree - 2):
        t = M @ t.reshape(n ** j, n, -1)
    return (M @ t.reshape(-1, n, n) @ M.T.copy()).reshape(-1)


def _compound_apply(M, vec, degree):
    """Degree-k compound of M applied to a k-form's coefficients."""
    n = M.shape[0]
    t = _compound_dense(M, _dense(vec, n, degree), degree)
    # degrees 0 and 1 are their own dense tensors: the gather back is the identity
    return t if degree < 2 else t[_dense_tables(n, degree)[3]]


def _star(vec, degree, metric):
    """Hodge star of a k-form's coefficients, positively oriented on e^{1..n}.

    Degrees k <= n/2 raise every index with g^{-1}, then complement; higher
    degrees complement first and lower the n-k indices with g (Jacobi's
    complementary-minor identity: the degree-k Gram of g^{-1} is
    sign(I,Ic) sign(J,Jc) det(g[Jc,Ic]) / det g), so no tensor exceeds rank n/2.
    """
    n = metric.dim
    if 2 * degree <= n:
        return metric.sqrt_det * _complement(_compound_apply(metric.inverse, vec, degree),
                                             n, degree)
    return _compound_apply(metric.g, _complement(vec, n, degree), n - degree) / metric.sqrt_det


def hodge_star(metric, a):
    """Hodge star of a k-form: a ^ star(b) = <a, b> dV, dV = sqrt(det g) e^{1..n}."""
    if metric.dim != a.dim:
        raise ValueError(f"dimension mismatch: metric {metric.dim}, form {a.dim}")
    return KForm.from_vector(a.dim, a.dim - a.degree, _star(a.to_vector(), a.degree, metric))


def _inner(u, v, degree, metric):
    """Metric inner product u . C_k(g^{-1}) v of two k-forms' coefficients.

    Degrees k > n/2 use Jacobi's identity, as in `_star`: <u, v> =
    sum_I sign(I, Ic) u_I (C_{n-k}(g) sv)_Ic / det g, sv the signed complement
    of v.  The outer complement reads sign(Ic, I) = (-1)^{k(n-k)} sign(I, Ic).
    """
    n = metric.dim
    if 2 * degree <= n:
        return float(u @ _compound_apply(metric.inverse, v, degree))
    c = _compound_apply(metric.g, _complement(v, n, degree), n - degree)
    c = _complement(c, n, n - degree)
    # sqrt(det g) twice, not its square, which underflows before it does
    return (-1.0) ** (degree * (n - degree)) * float(u @ c) / metric.sqrt_det / metric.sqrt_det


def form_inner(metric, a, b):
    """Metric inner product of equal-degree forms; <a, b> dV = a ^ star(b)."""
    if a.dim != b.dim or metric.dim != a.dim:
        raise ValueError("dimension mismatch")
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return _inner(a.to_vector(), b.to_vector(), a.degree, metric)
