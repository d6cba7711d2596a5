"""G2-structures on 7-dimensional Lie algebras.

A positive 3-form phi determines a metric through
    g(X, Y) dV = 1/6 iota_X phi ^ iota_Y phi ^ phi,
inverted here as g = (36 det B)^{-1/9} B where B_ij is the e^{1..7}
coefficient of iota_i phi ^ iota_j phi ^ phi, taken over Lambda^2; one
Cholesky factorisation of +-B gives the orientation, positivity and det B.
The torsion of the structure is read off from d phi and d star(phi) in
closed form, by Bryant's explicit projections onto the G2-invariant parts
(R. Bryant, Some remarks on G2-structures, arXiv:math/0305124), on
coefficient vectors with `exterior._star`; tau3 and tau2 reuse the stars of
d phi and d star(phi) that tau1 takes, through the G2 contraction identities
star(alpha ^ phi) = -iota_{alpha#} star(phi) and star(alpha ^ star(phi)) =
iota_{alpha#} phi, alpha# = g^-1 alpha, and star(star(phi)) = phi
(S. Karigiannis, Flows of G2-structures I, Q. J. Math. 60, 2009).
It is computed once per structure, at the first `torsion_forms` call, and
kept on the structure; the tau1 consistency check is applied on every call.

`phi_laplacian` is the Hodge Laplacian d delta phi + delta d phi of the
homogeneous flow (J. Lauret, Laplacian flow of homogeneous G2-structures and
its solitons, Proc. LMS 2017) as one kernel; `G2Structure.laplacian_vec` and
the flow oracle use it.  On closed forms delta d phi = 0, so the flow's
right-hand side `_closed_phi_laplacian` evaluates only the d delta phi half,
which `phi_laplacian` completes with delta d phi; it builds no Metric, and
hands its metric factors and delta phi on to the flow's sampled states.
Most of an evaluation is `_phi_metric`: B from one gather of phi
(`_phi_views`), one Cholesky factorisation and one inverse of a 7 x 7
matrix, and phi raised by g^-1, the dense tensor that `G2Structure`
complements into its star(phi) and that `_closed_phi_laplacian` takes to
delta phi by one fixed linear map per algebra, with no star(phi) of its
own.  Both factorisations are `exterior`'s, bare LAPACK calls: at this size
`np.linalg`'s wrappers cost more than LAPACK.  `scripts/percall.py` times
each layer; ROADMAP's per-call table has the measured times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (KForm, Metric, _cholesky_diagonal, _complement, _complement_gather,
                       _compound_apply, _compound_dense, _dense_tables, _interior_vec, _inverse,
                       _read_only, _star, _wedge_vec, complement_data, wedge_table)

VANISH_TOL = 1e-8
#: the tau1 disagreement beyond which `torsion_forms` raises TorsionSolveError
TAU1_TOL = 1e-8


class PositivityError(ValueError):
    """Raised when a 3-form does not define a positive definite metric."""


class TorsionSolveError(RuntimeError):
    """Raised when the two torsion equations disagree about tau1 by more than
    `tol`; `consistency` is the disagreement.  The message names the tolerance
    alone, so its text does not move with the roundoff the disagreement is."""

    def __init__(self, consistency, tol):
        super().__init__(f"tau1 disagrees between the two torsion equations by more than {tol:.3e}")
        self.consistency = consistency
        self.tol = tol


@lru_cache(maxsize=None)
def _pairing_table():
    # (flat position in a 21 x 21 matrix, position in phi, sign) of the pairing
    # Q(phi)_PQ = e^{1..7} coefficient of e^P ^ e^Q ^ phi over the 2-tuples P, Q:
    # e^P ^ e^Q = s e^S by the wedge table, and e^S ^ phi has s' phi_Sc on
    # e^{1..7} by the complement of the 4-tuple S
    ia, ib, iout, sign = wedge_table(7, 2, 2)
    pos, top = complement_data(7, 4)
    return _read_only(ia * 21 + ib, pos[iout], sign * top[iout])


@lru_cache(maxsize=None)
def _phi_gather_table():
    # (index,) reading one buffer of 343 + 147 + 147 + 441 entries, the views
    # of `_phi_views`, from a 3-form's coefficients v as (v, -v, 0), so that
    # each sign is in the index: the dense tensor A by `_dense_tables(7, 3)`;
    # iota, row i the 2-form iota_i phi, as the entries of A at the flat
    # 2-tuple indices `_dense_tables(7, 2)[3]` of its last two indices; the
    # same entries as a contiguous iota^T; and the pairing Q by `_pairing_table`
    src, dst, sign, _ = _dense_tables(7, 3)
    column = np.full(49, -1)
    column[_dense_tables(7, 2)[3]] = np.arange(21)
    i, p = dst // 49, column[dst % 49]
    on = p >= 0  # the entries of A whose last two indices increase
    i, p = i[on], p[on]
    q_dst, q_src, q_sign = _pairing_table()
    read = np.concatenate([src, src[on], src[on], q_src])
    sign = np.concatenate([sign, sign[on], sign[on], q_sign])
    dst = np.concatenate([dst, 343 + 21 * i + p, 490 + 7 * p + i, 637 + q_dst])
    index = np.full(1078, 70)  # the 0 after v and -v
    index[dst] = np.where(sign > 0, read, read + 35)
    return _read_only(index)


#: the 0 that `_phi_views` appends to (v, -v)
_ZERO = _read_only(np.zeros(1))[0]


def _phi_views(phi_vec):
    """(A, iota, iota^T, Q) of a 3-form's coefficients, views of one buffer
    gathered from them (`_phi_gather_table`): the flat dense tensor A, the
    7 x 21 matrix iota whose row i is the 2-form iota_i phi, its transpose,
    contiguous, and the symmetric 21 x 21 pairing Q of two 2-forms alpha, beta
    to the e^{1..7} coefficient of alpha ^ beta ^ phi."""
    t = np.concatenate((phi_vec, -phi_vec, _ZERO))[_phi_gather_table()[0]]
    return t[:343], t[343:490].reshape(7, 21), t[490:637].reshape(21, 7), t[637:].reshape(21, 21)


def _gram(phi_vec):
    """(dense phi, B) of a 3-form's coefficients, B_ij the e^{1..7}
    coefficient of iota_i phi ^ iota_j phi ^ phi.

    Over Lambda^2, B = iota Q iota^T (`_phi_views`), symmetrised.
    """
    A, iota, iota_t, Q = _phi_views(phi_vec)
    B = iota @ (Q @ iota_t)
    return A, (B + B.T) / 2.0


def _phi_metric(phi_vec):
    """(raised phi, det B, orientation, (g, g^-1, sqrt(det g))) of a 3-form's
    coefficients; the last three are `Metric._from_factors`'s arguments, so a
    caller that only reads them builds no Metric.

    g = (36 |det B|)^{-1/9} sign(det B) B.  One Cholesky factorisation
    L L^T = eps B, eps the sign of B_11, gives the orientation, positivity
    and det B = eps (prod L_ii)^2; then one inverse of g (`exterior`'s
    `_cholesky_diagonal` and `_inverse`).  Raises PositivityError when B is
    degenerate or not definite, or det B is not representable.
    The raised phi is the flat dense 7^3 tensor of phi with every index
    raised by g^-1 (`_compound_dense`); the signed complement of its
    increasing entries is star(phi) / sqrt(det g), as in `_star`, which
    `G2Structure` takes and `_closed_phi_laplacian` composes into its map.
    """
    A, B = _gram(phi_vec)
    eps = 1.0 if B[0, 0] > 0 else -1.0  # the sign of B when B is definite
    try:
        diag = _cholesky_diagonal(B if eps > 0 else -B)
        root = math.prod(diag)  # sqrt |det B|; may underflow or overflow
        det_b = eps * root * root
    except np.linalg.LinAlgError:  # B is not definite; det B only names the reason
        diag, det_b = None, float(np.linalg.det(B))
    if det_b == 0:
        raise PositivityError("not a positive G2 form (det B = 0)")
    if diag is None or not math.isfinite(det_b):
        raise PositivityError("not a positive G2 form (metric not positive definite)")
    c = (36.0 * abs(det_b)) ** (-1.0 / 9.0)
    g = c * eps * B
    # sqrt(c) L is the Cholesky factor of g: sqrt(det g) is its diagonal product, as in Metric
    sqrt_c = math.sqrt(c)
    sqrt_det = math.prod([sqrt_c * x for x in diag])
    inverse = _inverse(g)
    return _compound_dense(inverse, A, 3), det_b, eps, (g, inverse, sqrt_det)


@lru_cache(maxsize=None)
def _codifferential_table():
    # (the 49 x 21 matrix taking a 5-form's coefficients to minus the dense
    # 7 x 7 tensor of its signed complement, the `_complement` gather composed
    # with the `_dense` scatter of a 2-form; the signs and the flat indices
    # that read star(phi) / sqrt(det g) off the raised phi, for `G2Structure`
    # too; the flat 2-tuple indices that gather a 2-form back)
    perm, sign = _complement_gather(7, 5)
    src, dst, sgn, flat = _dense_tables(7, 2)
    minus = np.zeros((49, 21))
    minus[dst, perm[src]] = -(sgn * sign[src])
    perm, sign = _complement_gather(7, 3)
    return _read_only(minus, sign, _dense_tables(7, 3)[3][perm], flat)


def _closed_phi_laplacian(algebra, phi_vec):
    """((g, g^-1, sqrt(det g)), delta phi, d delta phi) of a 3-form's
    coefficients, delta phi = -star d star phi; d delta phi is the Hodge
    Laplacian of a closed 3-form, where delta d phi = 0.

    The right-hand side of the flow: the metric factors with the raised phi
    (one gather of phi, one Cholesky factorisation, one inverse, one
    compound), delta phi (a gather of the raised phi, one product with the
    algebra's 49 x 35 map K, the congruence by g and a gather) and
    d delta phi.  K = minus d4 diag(sign) (`_codifferential_table`) is the
    complement into star(phi), d on 4-forms and the 5-form complement as
    one map, built at the first call and kept in the algebra's `_codiff`
    slot; a row of minus has at most one +-1, so every entry of K is
    exactly +- one of d4 and delta phi is that of the three steps, bit for
    bit.  It builds no Metric: the flow's sampled states read the factors
    and delta phi of their point.  Raises PositivityError as
    `phi_laplacian` does.
    """
    if algebra.dim != 7:
        raise ValueError("G2 structures need a 7-dimensional algebra")
    raised, _, _, factors = _phi_metric(phi_vec)
    g = factors[0]
    minus, sign, index, flat = _codifferential_table()
    K = algebra._codiff
    if K is None:
        K = _read_only(minus @ (algebra.diff_matrix(4) * sign))[0]
        object.__setattr__(algebra, "_codiff", K)
    # sign * raised[index] is star(phi) / sqrt(det g); the 5-form star is C_2(g)
    # on the signed complement over sqrt(det g), so the two factors cancel
    t = (K @ raised[index]).reshape(7, 7)
    delta_phi = (g @ t @ g).reshape(-1)[flat]  # g is symmetric: C_2(g) t = g t g
    return factors, delta_phi, algebra.diff_matrix(2) @ delta_phi


def phi_laplacian(algebra, phi_vec):
    """Coefficients of the Hodge Laplacian d delta phi + delta d phi of a 3-form.

    Works on the 35 coefficients of phi alone, in the metric phi induces; raises
    PositivityError when phi is not a positive form.  It adds delta d phi, two
    4-form stars (each a complement, then the compound of g), to the d delta
    phi of `_closed_phi_laplacian`, the half that `flow_integrate`, whose
    states are closed, evaluates alone.  `G2Structure.laplacian_vec` and the
    flow oracle use this full operator.
    """
    (g, _, sqrt_det), _, d_delta_phi = _closed_phi_laplacian(algebra, phi_vec)
    d3 = algebra.diff_matrix(3)
    # delta d phi = star d star d phi; a 4-form star is C_3(g) on the signed
    # complement over sqrt(det g), so star_dphi is star(d phi) sqrt(det g)
    star_dphi = _compound_apply(g, _complement(d3 @ phi_vec, 7, 4), 3)
    delta_dphi = _compound_apply(g, _complement(d3 @ star_dphi, 7, 4), 3) / (sqrt_det * sqrt_det)
    return d_delta_phi + delta_dphi


class G2Structure:
    """A positive 3-form with its derived metric and Hodge data.

    The form fixes the metric through B/6 = sqrt(det g) g relative to
    epsilon e^{1..7} with epsilon = sign(det B), so g = (36 |det B|)^{-1/9}
    epsilon B.  Forms of either orientation are accepted (only a degenerate
    or indefinite B is rejected); `orientation` records epsilon.  The volume
    form and the Hodge star are always taken positively oriented on
    e^{1..7}, which is the convention the torsion conventions below assume.

    The metric and the coefficients of the star of phi, the signed
    complement of `_phi_metric`'s raised phi times sqrt(det g), are computed
    at construction; `star_phi` is a KForm built from them when read.  Stars
    and inner products of other forms are `hodge_star` and `form_inner` in
    that metric.  Instances are immutable and shareable.  Derived data that
    not every caller needs sits in a private slot that is None until its
    first use fills it (`_torsion`, by `torsion_forms`).
    """

    __slots__ = ("algebra", "phi", "metric", "gram_det", "orientation", "_star_phi_vec",
                 "_torsion")

    def __init__(self, algebra, phi):
        if algebra.dim != 7:
            raise ValueError("G2 structures need a 7-dimensional algebra")
        if phi.dim != 7 or phi.degree != 3:
            raise ValueError("phi must be a 3-form in dimension 7")
        raised, det_b, eps, factors = _phi_metric(phi.to_vector())
        metric = Metric._from_factors(*factors)
        _, sign, index, _ = _codifferential_table()
        star_phi = sign * raised[index]  # over sqrt(det g)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "gram_det", det_b)
        object.__setattr__(self, "orientation", eps)
        object.__setattr__(self, "_star_phi_vec", metric.sqrt_det * star_phi)
        object.__setattr__(self, "_torsion", None)

    def __setattr__(self, name, value):
        raise AttributeError("G2Structure is immutable")

    @property
    def star_phi(self):
        """The 4-form star(phi)."""
        return KForm.from_vector(7, 4, self._star_phi_vec)

    def laplacian_vec(self):
        """Coefficient vector of the Hodge Laplacian of phi (degree 3)."""
        return phi_laplacian(self.algebra, self.phi.to_vector())

    def __repr__(self):
        return f"G2Structure(algebra={self.algebra!r}, det_B={self.gram_det:.6g})"


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


def torsion_forms(structure):
    """Extract (tau0, tau1, tau2, tau3) by Bryant's projections:

        tau0 = 1/7 star(phi ^ d phi)
        tau1 = -1/12 star(star(d phi) ^ phi) = 1/12 star(star(d star phi) ^ star phi)
        tau3 = star(d phi - tau0 star(phi) - 3 tau1 ^ phi)
             = star(d phi) - tau0 phi + 3 iota_v star(phi)
        tau2 = -epsilon star(d star(phi) - 4 tau1 ^ star(phi))
             = -epsilon (star(d star(phi)) - 4 iota_v phi)

    with epsilon the orientation and v = g^-1 tau1.  The second lines, which
    are computed, follow from star(alpha ^ phi) = -iota_{alpha#} star(phi) and
    star(alpha ^ star(phi)) = iota_{alpha#} phi (Karigiannis 2009; they hold in
    either orientation) and star(star(phi)) = phi.  The two formulas for tau1
    read it from the two equations; `tau1_consistency` is their disagreement,
    and one beyond `TAU1_TOL` means the input did not come from a positive G2
    form and raises TorsionSolveError.  `residual` is the largest of |tau3 ^ phi|,
    |tau3 ^ star(phi)| and |tau2 ^ star(phi)|, the part of the data outside
    tau2 in Lambda^2_14 and tau3 in Lambda^3_27.

    The forms are computed once per structure and kept on it; the check is
    applied on every call, so a structure that fails it raises on every call.
    """
    t = structure._torsion
    if t is None:
        t = _torsion(structure)
        object.__setattr__(structure, "_torsion", t)
    if t.tau1_consistency > TAU1_TOL:
        raise TorsionSolveError(t.tau1_consistency, TAU1_TOL)
    return t


def _torsion(structure):
    """The unchecked TorsionForms of `torsion_forms`, on coefficient vectors."""
    G = structure
    m, phi, psi = G.metric, G.phi.to_vector(), G._star_phi_vec
    dphi = G.algebra.diff_matrix(3) @ phi
    dpsi = G.algebra.diff_matrix(4) @ psi
    star_dphi, star_dpsi = _star(dphi, 4, m), _star(dpsi, 5, m)

    tau0 = float(_star(_wedge_vec(7, 4, 3, dphi, phi), 7, m)[0]) / 7.0
    tau1 = -_star(_wedge_vec(7, 3, 3, star_dphi, phi), 6, m) / 12.0
    tau1_b = _star(_wedge_vec(7, 2, 4, star_dpsi, psi), 6, m) / 12.0
    v = m.inverse @ tau1  # tau1 with its index raised
    tau3 = star_dphi - tau0 * phi + 3.0 * _interior_vec(7, 4, v, psi)
    tau2 = -G.orientation * (star_dpsi - 4.0 * _interior_vec(7, 3, v, phi))
    residual = max(math.sqrt(x @ x) for x in (_wedge_vec(7, 3, 3, tau3, phi),
                                              _wedge_vec(7, 3, 4, tau3, psi),
                                              _wedge_vec(7, 2, 4, tau2, psi)))
    gap = tau1 - tau1_b
    return TorsionForms(tau0, KForm.from_vector(7, 1, tau1), KForm.from_vector(7, 2, tau2),
                        KForm.from_vector(7, 3, tau3), residual, math.sqrt(gap @ gap))


def lee_form(structure):
    """Lee form theta = 3 tau1 = -1/4 star(star(d phi) ^ phi), read from the
    structure's torsion (`torsion_forms`).  Raises TorsionSolveError where
    `torsion_forms` does, when the two torsion equations disagree about tau1."""
    return 3.0 * torsion_forms(structure).tau1


@dataclass(frozen=True)
class G2Class:
    """Vanishing pattern of the four torsion forms with the derived labels."""
    tau0_zero: bool
    tau1_zero: bool
    tau2_zero: bool
    tau3_zero: bool
    label: str
    labels: tuple


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
