"""SU(3)-structures on six-dimensional algebras.

A pair (omega, psi) of a nondegenerate 2-form and a stable 3-form of
complex type determines an almost-complex structure J (via the standard
stable-form construction), the dual 3-form psi_hat = Im of the complex
volume form, and the metric g = omega(., J.).

The checks of `SU3Structure` and `su3_classify` run on coefficient vectors
(`exterior._wedge_vec` and the algebra's differential matrices); psi_hat is
kept as a KForm.  `g2_product` passes to the product with a line: the trivial
extension is built once per base algebra and kept on it, and
phi = omega ^ e7 + psi is one gather of the coefficients of omega and psi,
placed by `exterior._line_positions`, the embedding of the forms of 1..6
among those of 1..7 that `curvature.rank_one_extension` uses too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (KForm, Metric, _dense, _dense_tables, _line_positions, _read_only,
                       _wedge_vec, complement_data, interior_table, wedge_matrix)
from .curvature import rank_one_extension
from .g2core import VANISH_TOL, G2Structure


def hitchin_j(algebra, psi):
    """Almost-complex structure of a stable 3-form.

    K(v) is the vector with iota_K(v) e^{1..6} = iota_v psi ^ psi; the
    quartic invariant is lam = tr(K^2)/6, negative exactly when psi has
    complex type, and then J = K / sqrt(-lam) squares to -I.  The sign of J
    is relative to the reference orientation +e^{1..6}; pair it with a
    2-form to fix it geometrically.
    """
    if algebra.dim != 6:
        raise ValueError("stable-form construction needs dimension 6")
    if psi.dim != 6 or psi.degree != 3:
        raise ValueError("psi must be a 3-form in dimension 6")
    # row j of `iota` is iota_{e_j} psi, column j of `mu` is iota_{e_j} psi ^ psi,
    # read off at the complements of e^i
    row, j, col, sg = interior_table(6, 3)
    v = psi.to_vector()
    iota = np.bincount(j * 15 + row, weights=sg * v[col], minlength=90).reshape(6, 15)
    mu = wedge_matrix(6, 2, 3, v) @ iota.T
    pos, signs = complement_data(6, 1)
    K = signs[:, None] * mu[pos]
    lam = float(np.trace(K @ K)) / 6.0
    if lam >= 0:
        raise ValueError("3-form is not stable of complex type (lambda >= 0)")
    return K / np.sqrt(-lam), lam


def _psi_hat(psi, J):
    # psi_hat(X,Y,Z) = -psi(JX,Y,Z), antisymmetrized; this is the imaginary
    # part of the complex volume form when J comes from psi itself.
    t = -(J.T @ _dense(psi.to_vector(), 6, 3).reshape(6, 36)).reshape(-1)
    src, dst, sgn, _ = _dense_tables(6, 3)
    return KForm.from_vector(6, 3, np.bincount(src, weights=sgn * t[dst], minlength=20) / 6.0)


class SU3Structure:
    """Validated pair (omega, psi) with derived J, psi_hat and metric.

    psi_hat is the dual 3-form: psi + i psi_hat is a complex volume form and
    psi ^ psi_hat = 2/3 omega^3 (`normalization_residual`).

    Validation: omega^3 nondegenerate, omega ^ psi = 0, psi stable of
    complex type, J^2 = -I, and g = omega(., J.) positive definite.  The
    first two are relative, so they answer alike at every scale: omega is
    degenerate when |omega^3| <= 1e-12 |omega|^3, and omega ^ psi != 0 when
    |omega ^ psi| > 1e-10 |omega| |psi|.  The
    residual sign freedom in J is resolved by this last requirement: a
    definite g has the sign of its diagonal, so the sign of g[0, 0] picks J
    and one Metric is built.  The checks run on coefficient vectors.
    """

    __slots__ = ("algebra", "omega", "psi", "J", "lam", "psi_hat", "metric")

    def __init__(self, algebra, omega, psi):
        if algebra.dim != 6:
            raise ValueError("SU(3)-structures need a 6-dimensional algebra")
        if omega.dim != 6 or omega.degree != 2:
            raise ValueError("omega must be a 2-form in dimension 6")
        if psi.dim != 6 or psi.degree != 3:
            raise ValueError("psi must be a 3-form in dimension 6")
        w, p = omega.to_vector(), psi.to_vector()
        u, q = _unit(w), _unit(p)  # the tests are homogeneous: no scale over- or underflows
        size_u, size_q = float(np.linalg.norm(u)), float(np.linalg.norm(q))
        if not size_u or abs(_omega_cubed(u)) <= 1e-12 * size_u ** 3:
            raise ValueError("omega is degenerate (omega^3 = 0)")
        compat = float(np.linalg.norm(_wedge_vec(6, 2, 3, u, q)))
        if compat > 1e-10 * size_u * size_q:
            raise ValueError(f"omega ^ psi != 0 (|omega ^ psi| / (|omega| |psi|) = "
                             f"{compat / (size_u * size_q):.3e})")
        J, lam = hitchin_j(algebra, psi)
        W = _dense(w, 6, 2).reshape(6, 6)
        g = W @ J
        if g[0, 0] < 0:  # a definite g has the sign of its diagonal
            J = -J
            g = W @ J
        try:
            metric = Metric(g)
        except ValueError:
            raise ValueError("omega(., J.) is not positive definite for either sign of J") from None
        j2 = float(np.linalg.norm(J @ J + np.eye(6)))
        if j2 > 1e-8:
            raise ValueError(f"J^2 != -I (residual {j2:.3e})")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "psi_hat", _psi_hat(psi, J))
        object.__setattr__(self, "metric", metric)

    def __setattr__(self, name, value):
        raise AttributeError("SU3Structure is immutable")

    def normalization_residual(self):
        """|| psi ^ psi_hat - 2/3 omega^3 ||, the volume normalization check."""
        lhs = _wedge_vec(6, 3, 3, self.psi.to_vector(), self.psi_hat.to_vector())
        return abs(float(lhs[0]) - (2.0 / 3.0) * _omega_cubed(self.omega.to_vector()))

    def __repr__(self):
        return f"SU3Structure(algebra={self.algebra!r})"


def _unit(v):
    # v over its largest |coefficient|; the zero form stays zero
    top = float(np.abs(v).max())
    return v / top if top else v


def _omega_cubed(w):
    # the e^{1..6} coefficient of omega ^ omega ^ omega
    return float(_wedge_vec(6, 4, 2, _wedge_vec(6, 2, 2, w, w), w)[0])


@dataclass(frozen=True)
class SU3Class:
    """Detected structure type with the proportionality constant of d omega = c psi."""
    half_flat: bool
    coupled: bool
    symplectic_half_flat: bool
    nearly_kahler: bool
    c: float
    residuals: dict


def su3_classify(structure, tol=VANISH_TOL):
    """Detect half-flat / coupled / symplectic half-flat / nearly Kahler.

    Half-flat: d(omega^2) = 0 and d psi = 0.  The constant c of
    d omega = c psi is fit by least squares; `coupled` additionally needs
    the fit residual to vanish and d omega != 0, while c = 0 (i.e. omega
    symplectic) gives symplectic half-flat.  Nearly Kahler additionally
    requires d psi_hat = -2/3 c omega^2.  Works on coefficient vectors with
    the algebra's differential matrices.
    """
    S = structure
    L = S.algebra
    w, p = S.omega.to_vector(), S.psi.to_vector()
    d_omega = L.diff_matrix(2) @ w
    omega2 = _wedge_vec(6, 2, 2, w, w)
    d_omega2_norm = float(np.linalg.norm(L.diff_matrix(4) @ omega2))
    d_psi_norm = float(np.linalg.norm(L.diff_matrix(3) @ p))
    half_flat = d_omega2_norm <= tol and d_psi_norm <= tol

    c = float(p @ d_omega / (p @ p))
    coupled_residual = float(np.linalg.norm(d_omega - c * p))
    proportional = coupled_residual <= tol
    symplectic = half_flat and float(np.linalg.norm(d_omega)) <= tol
    coupled = half_flat and proportional and not symplectic

    d_psi_hat = L.diff_matrix(3) @ S.psi_hat.to_vector()
    nk_residual = float(np.linalg.norm(d_psi_hat + (2.0 / 3.0) * c * omega2))
    nearly_kahler = coupled and nk_residual <= tol

    if symplectic:
        c = 0.0
    return SU3Class(half_flat, coupled, symplectic, nearly_kahler, c,
                    residuals={"d_omega2": d_omega2_norm, "d_psi": d_psi_norm,
                               "coupled_fit": coupled_residual, "nearly_kahler": nk_residual})


@lru_cache(maxsize=None)
def _product_gather():
    # the position among the coefficients of omega, then psi, that each
    # coefficient of omega ^ e7 + psi reads: e^{ij7} omega_ij, e^{ijk} psi_ijk
    base, line = _line_positions(7, 3)
    return _read_only(np.argsort(np.concatenate((line, base))))[0]


def g2_product(structure, extension=None):
    """The 3-form omega ^ e7 + psi on a one-dimensional extension.

    With no extension given, the line is attached trivially (d e7 = 0,
    no transport), and the induced metric is the product g + (e7)^2; that
    extension is built once per base algebra and kept on it (its private
    `_line` slot).  A supplied 7-dimensional algebra is validated to restrict
    to the base algebra: d e7 = 0, and its d e^i may only add terms against
    e7, i.e. its d e^1..d e^6 at the 2-tuples without 7 are the base's to
    1e-12.  phi is one gather of the coefficients of omega and psi.
    """
    S = structure
    base = S.algebra
    if extension is None:
        extension = base._line
        if extension is None:
            extension = rank_one_extension(base, np.zeros((6, 6)))
            object.__setattr__(base, "_line", extension)
    else:
        if extension.dim != 7:
            raise ValueError("extension must be 7-dimensional")
        duals = np.stack([form.to_vector() for form in extension.dual_differential])
        if np.linalg.norm(duals[6]) > 1e-12:
            raise ValueError("extension must have d e7 = 0")
        off = np.abs(duals[:6, _line_positions(7, 2)[0]]
                     - np.stack([form.to_vector() for form in base.dual_differential])) > 1e-12
        failing = np.flatnonzero(off.any(axis=1))
        if failing.size:
            raise ValueError(f"extension does not restrict to the base algebra at e{failing[0] + 1}")
    phi = np.concatenate((S.omega.to_vector(), S.psi.to_vector()))[_product_gather()]
    return G2Structure(extension, KForm.from_vector(7, 3, phi))
