"""G2-structures on 7-dimensional Lie algebras.

A positive 3-form phi determines a metric through
    g(X, Y) dV = 1/6 iota_X phi ^ iota_Y phi ^ phi,
inverted here as g = (36 det B)^{-1/9} B where B_ij is the e^{1..7}
coefficient of iota_i phi ^ iota_j phi ^ phi.  The torsion of the structure
is read off from d phi and d star(phi) in closed form, by Bryant's explicit
projections onto the G2-invariant parts (R. Bryant, Some remarks on
G2-structures, arXiv:math/0305124), on coefficient vectors.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (KForm, Metric, complement_data, form_inner, multi_indices,
                       sort_with_sign, standard_volume, wedge, wedge_matrix)
from .liealg import ce_diff

VANISH_TOL = 1e-8


class PositivityError(ValueError):
    """Raised when a 3-form does not define a positive definite metric."""


class TorsionSolveError(RuntimeError):
    """Raised when the two torsion equations disagree about tau1."""


def gram_matrix_from_phi(phi_vec):
    """B_ij = coefficient of e^{1..7} in iota_i phi ^ iota_j phi ^ phi.

    As dense tensors B_ij = 1/4 phi_iab phi_jcd psi^abcd, where psi^I =
    sign(I, Ic) phi_Ic is the signed complement of phi.
    """
    pos, s = complement_data(7, 3)
    psi = np.empty(35)
    psi[pos] = s * phi_vec
    A = _dense(phi_vec, 3).reshape(7, 49)
    B = A @ (_dense(psi, 4).reshape(49, 49) @ A.T) / 4.0
    return (B + B.T) / 2.0


def _phi_metric(phi_vec):
    """(B, det B, orientation, Metric) of a 3-form's coefficient vector.

    g = (36 |det B|)^{-1/9} sign(det B) B; raises PositivityError when B is
    degenerate or g is not positive definite.
    """
    B = gram_matrix_from_phi(phi_vec)
    det_b = float(np.linalg.det(B))
    if det_b == 0:
        raise PositivityError("not a positive G2 form (det B = 0)")
    eps = 1.0 if det_b > 0 else -1.0
    metric = Metric((36.0 * abs(det_b)) ** (-1.0 / 9.0) * eps * B)
    if not metric.positive_definite:
        raise PositivityError("not a positive G2 form (metric not positive definite)")
    return B, det_b, eps, metric


@lru_cache(maxsize=None)
def _dense_tables(degree):
    # Scatter table of the dense antisymmetric 7^degree tensor of a k-form:
    # for every increasing tuple (source position) and every ordering of it,
    # the flat tensor index and the ordering's sign; plus the flat index of
    # each increasing tuple, to gather the result back.
    def flat(idx):
        return sum((i - 1) * 7 ** (degree - 1 - a) for a, i in enumerate(idx))

    keys = multi_indices(7, degree)
    src, dst, sgn = [], [], []
    for p, key in enumerate(keys):
        for perm in itertools.permutations(key):
            src.append(p)
            dst.append(flat(perm))
            sgn.append(float(sort_with_sign(perm)[1]))
    return (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), np.array(sgn),
            np.array([flat(key) for key in keys], dtype=np.intp))


def _dense(vec, degree):
    """Flat dense antisymmetric 7^degree tensor of a k-form's coefficients."""
    src, dst, sgn, _ = _dense_tables(degree)
    t = np.zeros(7 ** degree)
    t[dst] = sgn * vec[src]
    return t


def _compound_apply(M, vec, degree):
    """Degree-k compound of the symmetric 7x7 matrix M applied to a k-form's
    coefficients (k <= 3): M acts on every index of the dense tensor."""
    t = _dense(vec, degree)
    for _ in range(degree):
        # acts on the leading index and rotates it to the back
        t = (M @ t.reshape(7, -1)).T
    return t.reshape(-1)[_dense_tables(degree)[3]]


def _star(vec, degree, metric):
    """Hodge star of a k-form's coefficients, positively oriented on e^{1..7}.

    Degrees <= 3 raise every index with g^{-1}; degrees >= 4 place the signed
    complement first and lower its 7-k indices with g (Jacobi's
    complementary-minor identity: the degree-k Gram of g^{-1} is
    sign(I,Ic) sign(J,Jc) det(g[Jc,Ic]) / det g), so no tensor exceeds rank 3.
    """
    pos, s = complement_data(7, degree)
    out = np.empty(len(pos))
    if degree <= 3:
        out[pos] = s * (metric.sqrt_det * _compound_apply(metric.inverse, vec, degree))
        return out
    out[pos] = s * vec
    return _compound_apply(metric.g, out, 7 - degree) / metric.sqrt_det


def phi_laplacian(algebra, phi_vec):
    """Coefficients of the Hodge Laplacian d delta phi + delta d phi of a 3-form.

    Works on the 35 coefficients of phi alone, in the metric phi induces; raises
    PositivityError when phi is not a positive form.
    """
    if algebra.dim != 7:
        raise ValueError("G2 structures need a 7-dimensional algebra")
    metric = _phi_metric(phi_vec)[3]
    d2, d3, d4 = algebra.diff_matrix(2), algebra.diff_matrix(3), algebra.diff_matrix(4)
    delta_phi = -_star(d4 @ _star(phi_vec, 3, metric), 5, metric)
    delta_dphi = _star(d3 @ _star(d3 @ phi_vec, 4, metric), 4, metric)
    return d2 @ delta_phi + delta_dphi


class G2Structure:
    """A positive 3-form with its derived metric, volume and Hodge data.

    The form fixes the metric through B/6 = sqrt(det g) g relative to
    epsilon e^{1..7} with epsilon = sign(det B), so g = (36 |det B|)^{-1/9}
    epsilon B.  Forms of either orientation are accepted (only a degenerate
    or indefinite B is rejected); `orientation` records epsilon.  The volume
    form and the Hodge star are always taken positively oriented on
    e^{1..7}, which is the convention the torsion conventions below assume.

    The metric and the star of phi are computed at construction; stars and
    inner products of other forms go through the dense kernels `_star` and
    `_compound_apply`.  Instances are immutable and shareable.
    """

    __slots__ = ("algebra", "phi", "metric", "volume", "gram_det", "b_matrix",
                 "orientation", "star_phi", "_phi_vec", "_star_phi_vec")

    def __init__(self, algebra, phi):
        if algebra.dim != 7:
            raise ValueError("G2 structures need a 7-dimensional algebra")
        if phi.dim != 7 or phi.degree != 3:
            raise ValueError("phi must be a 3-form in dimension 7")
        v = phi.to_vector()
        B, det_b, eps, metric = _phi_metric(v)
        spv = _star(v, 3, metric)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "volume", metric.sqrt_det * standard_volume(7))
        object.__setattr__(self, "gram_det", det_b)
        object.__setattr__(self, "b_matrix", B)
        object.__setattr__(self, "orientation", eps)
        object.__setattr__(self, "_phi_vec", v)
        object.__setattr__(self, "_star_phi_vec", spv)
        object.__setattr__(self, "star_phi", KForm.from_vector(7, 4, spv))

    def __setattr__(self, name, value):
        raise AttributeError("G2Structure is immutable")

    def star(self, a):
        """Hodge star in this structure's metric, positively oriented on e^{1..7}."""
        return KForm.from_vector(7, 7 - a.degree, _star(a.to_vector(), a.degree, self.metric))

    def d(self, a):
        return ce_diff(self.algebra, a)

    def inner(self, a, b):
        if a.degree == b.degree <= 3:
            return float(a.to_vector() @ _compound_apply(self.metric.inverse, b.to_vector(),
                                                         b.degree))
        return form_inner(self.metric, a, b)

    def norm(self, a):
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def laplacian_vec(self):
        """Coefficient vector of the Hodge Laplacian of phi (degree 3)."""
        return phi_laplacian(self.algebra, self._phi_vec)

    def __repr__(self):
        return f"G2Structure(algebra={self.algebra!r}, det_B={self.gram_det:.6g})"


def metric_from_phi(algebra, phi):
    """Build the G2Structure of a positive 3-form; raises PositivityError otherwise."""
    return G2Structure(algebra, phi)


def lambda2_14_basis(structure):
    """Orthonormal basis (as columns) of {alpha in Lambda^2 : alpha ^ star(phi) = 0}."""
    mat = wedge_matrix(7, 2, 4, structure._star_phi_vec)
    return _null_space(mat)


def lambda3_27_basis(structure):
    """Orthonormal basis of {beta in Lambda^3 : beta ^ phi = 0, beta ^ star(phi) = 0}."""
    top = wedge_matrix(7, 3, 3, structure._phi_vec)
    bottom = wedge_matrix(7, 3, 4, structure._star_phi_vec)
    return _null_space(np.vstack([top, bottom]))


def _null_space(mat, rcond=1e-10):
    _, s, vh = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    rank = int((s > rcond * max(smax, 1.0)).sum())
    return vh[rank:].T


@dataclass(frozen=True)
class TorsionForms:
    """Torsion components of d phi = tau0 star(phi) + 3 tau1 ^ phi + star(tau3)
    and d star(phi) = 4 tau1 ^ star(phi) + tau2 ^ phi."""
    tau0: float
    tau1: KForm
    tau2: KForm
    tau3: KForm
    residual: float
    tau1_consistency: float = 0.0


def torsion_forms(structure, tau1_tol=1e-8):
    """Extract (tau0, tau1, tau2, tau3) by Bryant's projections:

        tau0 = 1/7 star(phi ^ d phi)
        tau1 = -1/12 star(star(d phi) ^ phi) = 1/12 star(star(d star phi) ^ star phi)
        tau3 = star(d phi - tau0 star(phi) - 3 tau1 ^ phi)
        tau2 = -epsilon star(d star(phi) - 4 tau1 ^ star(phi))

    with epsilon the orientation.  The two formulas for tau1 read it from the
    two equations; a disagreement beyond `tau1_tol` means the input did not
    come from a positive G2 form and raises TorsionSolveError.  `residual` is
    the largest of |tau3 ^ phi|, |tau3 ^ star(phi)| and |tau2 ^ star(phi)|,
    the part of the data outside tau2 in Lambda^2_14 and tau3 in Lambda^3_27.
    """
    G = structure
    m, phi, psi = G.metric, G._phi_vec, G._star_phi_vec
    dphi = G.algebra.diff_matrix(3) @ phi
    dpsi = G.algebra.diff_matrix(4) @ psi
    wedge3_phi = wedge_matrix(7, 3, 3, phi)
    wedge2_psi = wedge_matrix(7, 2, 4, psi)

    tau0 = float(_star(wedge_matrix(7, 4, 3, phi) @ dphi, 7, m)[0]) / 7.0
    tau1 = -_star(wedge3_phi @ _star(dphi, 4, m), 6, m) / 12.0
    tau1_b = _star(wedge2_psi @ _star(dpsi, 5, m), 6, m) / 12.0
    tau1_mismatch = float(np.linalg.norm(tau1 - tau1_b))
    if tau1_mismatch > tau1_tol:
        raise TorsionSolveError(
            f"tau1 disagrees between the two torsion equations by {tau1_mismatch:.3e}")

    tau3 = _star(dphi - tau0 * psi - 3.0 * (wedge_matrix(7, 1, 3, phi) @ tau1), 4, m)
    tau2 = -G.orientation * _star(dpsi - 4.0 * (wedge_matrix(7, 1, 4, psi) @ tau1), 5, m)
    residual = max(float(np.linalg.norm(wedge3_phi @ tau3)),
                   float(np.linalg.norm(wedge_matrix(7, 3, 4, psi) @ tau3)),
                   float(np.linalg.norm(wedge2_psi @ tau2)))
    return TorsionForms(tau0, KForm.from_vector(7, 1, tau1), KForm.from_vector(7, 2, tau2),
                        KForm.from_vector(7, 3, tau3), residual, tau1_mismatch)


def lee_form(structure):
    """Lee form theta = -1/4 star(star(d phi) ^ phi); equals 3 tau1."""
    G = structure
    inner = wedge(G.star(G.d(G.phi)), G.phi)
    return -0.25 * G.star(inner)


@dataclass(frozen=True)
class G2Class:
    """Vanishing pattern of the four torsion forms with the derived labels."""
    tau0_zero: bool
    tau1_zero: bool
    tau2_zero: bool
    tau3_zero: bool
    label: str
    labels: tuple

    @property
    def torsion_free(self):
        return self.tau0_zero and self.tau1_zero and self.tau2_zero and self.tau3_zero


_CLASS_TABLE = (
    # (label, which torsion forms must vanish)
    ("nearly parallel", (False, True, True, True)),
    ("closed, calibrated", (True, True, False, True)),
    ("locally conformal parallel", (True, False, True, True)),
    ("coclosed, cocalibrated", (False, True, True, False)),
    ("locally conformal calibrated", (True, False, False, True)),
)


def classify(torsion, tol=VANISH_TOL):
    """Classify from the torsion forms: vanishing flags plus type labels.

    `labels` records every matching row of the class table (the classes are
    nested); `label` is the most specific one, or "generic"/"torsion-free".
    """
    flags = (abs(torsion.tau0) <= tol,
             torsion.tau1.norm() <= tol,
             torsion.tau2.norm() <= tol,
             torsion.tau3.norm() <= tol)
    if all(flags):
        return G2Class(*flags, label="torsion-free",
                       labels=("torsion-free",) + tuple(name for name, _ in _CLASS_TABLE))
    matching = tuple(name for name, req in _CLASS_TABLE
                     if all(f for f, needed in zip(flags, req) if needed))
    label = matching[0] if matching else "generic"
    return G2Class(*flags, label=label, labels=matching or ("generic",))
