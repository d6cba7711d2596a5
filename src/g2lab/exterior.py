"""Sparse exterior algebra over a fixed basis e1..en, with one dense kernel.

A k-form is stored as a map from strictly increasing 1-based index tuples
to float coefficients.  Everything is immutable after construction and all
operations are pure functions, so values can be shared freely.

Products scatter through cached COO tables (`wedge_table`; `interior` is its
transpose).  The metric operations share one dense kernel: `_dense` expands a
k-form to its antisymmetric n^k tensor, `_compound_apply` acts on every index
of it, and `_star` is the Hodge star on coefficient vectors.

Dimension is generic but capped at MAX_DIM: all operators here enumerate
the full basis of each degree, which is only sensible for small n.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

MAX_DIM = 10
PRUNE_TOL = 1e-13


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


@lru_cache(maxsize=None)
def multi_indices(dim, degree):
    """All strictly increasing index tuples of the given length, lexicographic."""
    return tuple(itertools.combinations(range(1, dim + 1), degree))


@lru_cache(maxsize=None)
def index_positions(dim, degree):
    return {idx: p for p, idx in enumerate(multi_indices(dim, degree))}


@lru_cache(maxsize=None)
def complement_data(dim, degree):
    """Complement positions and shuffle signs for the Hodge pairing.

    For each increasing tuple I of length `degree` (by position), gives the
    position of its complement Ic among the (dim-degree)-tuples and the sign
    of the shuffle (I, Ic) relative to (1, ..., dim).
    """
    pos_nk = index_positions(dim, dim - degree)
    full = set(range(1, dim + 1))
    positions, signs = [], []
    for idx in multi_indices(dim, degree):
        comp = tuple(sorted(full - set(idx)))
        _, s = sort_with_sign(idx + comp)
        positions.append(pos_nk[comp])
        signs.append(float(s))
    return np.array(positions, dtype=np.intp), np.array(signs)


@lru_cache(maxsize=None)
def wedge_table(dim, k, l):
    """COO table (ia, ib, iout, sign) for the wedge Lambda^k x Lambda^l -> Lambda^{k+l}."""
    pos_out = index_positions(dim, k + l)
    ia, ib, iout, sg = [], [], [], []
    for pa, a in enumerate(multi_indices(dim, k)):
        sa = set(a)
        for pb, b in enumerate(multi_indices(dim, l)):
            if sa & set(b):
                continue
            key, s = sort_with_sign(a + b)
            ia.append(pa)
            ib.append(pb)
            iout.append(pos_out[key])
            sg.append(float(s))
    return (np.array(ia, dtype=np.intp), np.array(ib, dtype=np.intp),
            np.array(iout, dtype=np.intp), np.array(sg))


def wedge_matrix(dim, k, l, vec_l):
    """Matrix of (.) wedge b acting Lambda^k -> Lambda^{k+l}, for fixed b with coefficients vec_l."""
    ia, ib, iout, sg = wedge_table(dim, k, l)
    out = np.zeros((len(multi_indices(dim, k + l)), len(multi_indices(dim, k))))
    np.add.at(out, (iout, ia), sg * vec_l[ib])
    return out


class KForm:
    """Alternating form of fixed degree with sparse float coefficients.

    Keys are canonicalized (sorted with sign, merged, pruned below PRUNE_TOL)
    at construction.  Degrees above `dim` are allowed and necessarily empty,
    which keeps d and wedge total.
    """

    __slots__ = ("dim", "degree", "_coeffs")

    def __init__(self, dim, degree, coeffs=None):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        canon = {}
        for key, value in (coeffs or {}).items():
            if len(key) != degree:
                raise ValueError(f"index {key} has length {len(key)}, expected {degree}")
            if any(i < 1 or i > dim for i in key):
                raise ValueError(f"index {key} out of range 1..{dim}")
            skey, sign = sort_with_sign(tuple(key))
            if sign == 0:
                continue
            canon[skey] = canon.get(skey, 0.0) + sign * float(value)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_coeffs",
                           {k: v for k, v in sorted(canon.items()) if abs(v) > PRUNE_TOL})

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
        """Form with coefficients `vec` over `multi_indices(dim, degree)`.  Those keys
        are canonical, so only the range checks and the prune (of NaN too) apply."""
        form = cls(dim, degree)
        keys = multi_indices(dim, degree)
        if len(vec) != len(keys):
            raise ValueError(f"coefficient vector has length {len(vec)}, expected {len(keys)}")
        vec = np.asarray(vec, dtype=float)
        object.__setattr__(form, "_coeffs", {keys[p]: float(vec[p])
                                             for p in np.flatnonzero(np.abs(vec) > PRUNE_TOL)})
        return form

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    def to_vector(self):
        vec = np.zeros(len(multi_indices(self.dim, self.degree)))
        pos = index_positions(self.dim, self.degree)
        for key, value in self._coeffs.items():
            vec[pos[key]] = value
        return vec

    def coefficient(self, indices):
        """Coefficient on the given index tuple; any order, sign tracked."""
        key, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return 0.0
        return sign * self._coeffs.get(key, 0.0)

    def items(self):
        return self._coeffs.items()

    def norm(self):
        """Euclidean norm of the coefficient vector (basis-dependent)."""
        return math.sqrt(sum(v * v for v in self._coeffs.values()))

    def sup_norm(self):
        return max((abs(v) for v in self._coeffs.values()), default=0.0)

    def is_zero(self, tol=0.0):
        return all(abs(v) <= tol for v in self._coeffs.values())

    def allclose(self, other, tol=1e-10):
        if self.dim != other.dim or self.degree != other.degree:
            return False
        keys = set(self._coeffs) | set(other._coeffs)
        return all(abs(self._coeffs.get(k, 0.0) - other._coeffs.get(k, 0.0)) <= tol
                   for k in keys)

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.allclose(other, tol=1e-12)

    __hash__ = None

    def __add__(self, other):
        self._check_match(other)
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return KForm(self.dim, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KForm(self.dim, self.degree, {k: -v for k, v in self._coeffs.items()})

    def __mul__(self, scalar):
        s = float(scalar)
        return KForm(self.dim, self.degree, {k: s * v for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def wedge(self, other):
        return wedge(self, other)

    def embed(self, dim):
        """Reinterpret in a larger ambient dimension (same coefficients)."""
        if dim < self.dim:
            raise ValueError("cannot embed into a smaller dimension")
        return KForm(dim, self.degree, dict(self._coeffs))

    def _check_match(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __repr__(self):
        if not self._coeffs:
            return f"KForm({self.dim}, {self.degree}, 0)"
        terms = " + ".join(f"{v:g}*e{''.join(map(str, k))}" if k else f"{v:g}"
                           for k, v in self._coeffs.items())
        return f"KForm({self.dim}, {self.degree}, {terms})"


def standard_volume(dim):
    return KForm.basis(dim, tuple(range(1, dim + 1)))


def wedge(a, b):
    """Wedge product; bilinear, graded-commutative.  One scatter through
    `wedge_table`, summing the terms of each coefficient in (a, b) key order."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    n, k = a.dim, a.degree + b.degree
    ia, ib, iout, sg = wedge_table(n, a.degree, b.degree)
    vec = np.bincount(iout, weights=sg * a.to_vector()[ia] * b.to_vector()[ib],
                      minlength=len(multi_indices(n, k)))
    return KForm.from_vector(n, k, vec)


def interior(vector, a):
    """Interior product iota_v a for a coefficient vector v over the basis.

    Antiderivation of degree -1; raises on 0-forms (there is no meaningful
    degree -1 result to return).
    """
    v = np.asarray(vector, dtype=float)
    if v.shape != (a.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({a.dim},)")
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    # (-1)^{k-1} times the transpose of b -> b ^ v, scattered through its
    # wedge table: e^{I - i_p} ^ e^{i_p} = (-1)^{k-1-p} e^I
    n, k = a.dim, a.degree
    ia, ib, iout, sg = wedge_table(n, k - 1, 1)
    vec = np.bincount(ia, weights=sg * v[ib] * a.to_vector()[iout],
                      minlength=len(multi_indices(n, k - 1)))
    return KForm.from_vector(n, k - 1, (-1.0) ** (k - 1) * vec)


class Metric:
    """Inner product on the base space as a symmetric matrix, with cached
    inverse/determinant data (computed eagerly so instances are freely shareable)."""

    __slots__ = ("dim", "g", "det", "positive_definite", "inverse", "sqrt_det")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"metric must be a square matrix, got shape {m.shape}")
        g = (m + m.T) / 2.0
        g.setflags(write=False)
        object.__setattr__(self, "dim", g.shape[0])
        object.__setattr__(self, "g", g)
        try:
            # sqrt(det g) is the product of the Cholesky diagonal, which stays
            # representable when det g itself under- or overflows
            sqrt_det = float(np.prod(np.diag(np.linalg.cholesky(g))))
            det, pd = sqrt_det * sqrt_det, True
        except np.linalg.LinAlgError:
            det, pd = float(np.linalg.det(g)), False
            sqrt_det = math.sqrt(det) if det > 0 else float("nan")
        try:
            inv = np.linalg.inv(g)
            inv.setflags(write=False)
        except np.linalg.LinAlgError:  # exactly singular, whatever the scale
            inv = None
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "positive_definite", pd)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "sqrt_det", sqrt_det)

    def __setattr__(self, name, value):
        raise AttributeError("Metric is immutable")

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    def leading_minors(self):
        return [float(np.linalg.det(self.g[:k, :k])) for k in range(1, self.dim + 1)]

    def __repr__(self):
        return f"Metric(dim={self.dim}, det={self.det:.6g})"


@lru_cache(maxsize=None)
def _dense_tables(dim, degree):
    # Scatter table of the dense antisymmetric dim^degree tensor of a k-form:
    # for every increasing tuple (source position) and every ordering of it,
    # the flat tensor index and the ordering's sign; plus the flat index of
    # each increasing tuple, to gather the result back.
    def flat(idx):
        return sum((i - 1) * dim ** (degree - 1 - a) for a, i in enumerate(idx))

    keys = multi_indices(dim, degree)
    src, dst, sgn = [], [], []
    for p, key in enumerate(keys):
        for perm in itertools.permutations(key):
            src.append(p)
            dst.append(flat(perm))
            sgn.append(float(sort_with_sign(perm)[1]))
    return (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), np.array(sgn),
            np.array([flat(key) for key in keys], dtype=np.intp))


def _dense(vec, dim, degree):
    """Flat dense antisymmetric dim^degree tensor of a k-form's coefficients."""
    src, dst, sgn, _ = _dense_tables(dim, degree)
    t = np.zeros(dim ** degree)
    t[dst] = sgn * vec[src]
    return t


def _compound_apply(M, vec, degree):
    """Degree-k compound of the n x n matrix M (the minors det M[I, J]) applied
    to a k-form's coefficients: M acts on every index of the dense tensor."""
    n = M.shape[0]
    t = _dense(vec, n, degree)
    for _ in range(degree):
        # acts on the leading index and rotates it to the back
        t = (M @ t.reshape(n, -1)).T
    return t.reshape(-1)[_dense_tables(n, degree)[3]]


def _star(vec, degree, metric):
    """Hodge star of a k-form's coefficients, positively oriented on e^{1..n}.

    Degrees k <= n/2 raise every index with g^{-1}; higher degrees place the
    signed complement first and lower its n-k indices with g (Jacobi's
    complementary-minor identity: the degree-k Gram of g^{-1} is
    sign(I,Ic) sign(J,Jc) det(g[Jc,Ic]) / det g), so no tensor exceeds rank n/2.
    """
    n = metric.dim
    pos, s = complement_data(n, degree)
    out = np.empty(len(pos))
    if 2 * degree <= n:
        out[pos] = s * (metric.sqrt_det * _compound_apply(metric.inverse, vec, degree))
        return out
    out[pos] = s * vec
    return _compound_apply(metric.g, out, n - degree) / metric.sqrt_det


def _orientation_sign(dim, orientation_volume):
    if orientation_volume is None:
        return 1.0
    if orientation_volume.dim != dim or orientation_volume.degree != dim:
        raise ValueError("orientation volume must be a top-degree form of the same dimension")
    c = orientation_volume.coefficient(tuple(range(1, dim + 1)))
    if c == 0.0:
        raise ValueError("orientation volume must be nonzero")
    return 1.0 if c > 0 else -1.0


def hodge_star(metric, a, orientation_volume=None):
    """Hodge star of a k-form: a ^ star(b) = <a, b> dV.

    dV = sqrt(det g) e^{1..n}, possibly reoriented by orientation_volume's sign.
    """
    if metric.dim != a.dim:
        raise ValueError(f"dimension mismatch: metric {metric.dim}, form {a.dim}")
    if not metric.positive_definite:
        raise ValueError("metric is not positive definite")
    orient = _orientation_sign(a.dim, orientation_volume)
    star = _star(a.to_vector(), a.degree, metric)
    return KForm.from_vector(a.dim, a.dim - a.degree, orient * star)


def form_inner(metric, a, b):
    """Metric inner product of equal-degree forms; <a, b> dV = a ^ star(b)."""
    if a.dim != b.dim or metric.dim != a.dim:
        raise ValueError("dimension mismatch")
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    n, k = a.dim, a.degree
    if 2 * k <= n:
        return float(a.to_vector() @ _compound_apply(metric.inverse, b.to_vector(), k))
    # Jacobi's identity, as in _star: <a, b> = (sa . C_{n-k}(g) sb) / det g
    # with sa, sb the signed complements; defined for indefinite g too
    pos, s = complement_data(n, k)
    sb = np.empty(len(pos))
    sb[pos] = s * b.to_vector()
    return float((s * a.to_vector()) @ _compound_apply(metric.g, sb, n - k)[pos]) / metric.det
