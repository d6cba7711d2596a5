"""SU(3)-structures on six-dimensional algebras.

A pair (omega, psi) of a nondegenerate 2-form and a stable 3-form of
complex type determines an almost-complex structure J (via the standard
stable-form construction), the dual 3-form psi_hat = Im of the complex
volume form, and the metric g = omega(., J.).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import (KForm, Metric, _dense, _dense_tables, complement_data, wedge,
                       wedge_matrix, wedge_table)
from .g2core import G2Structure
from .liealg import LieAlgebra, ce_diff


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
    # row j of `iota` is iota_{e_j} psi (the transpose of e^{ab} -> e^{ab} ^ e^j),
    # column j of `mu` is iota_{e_j} psi ^ psi, read off at the complements of e^i
    ia, ib, iout, sg = wedge_table(6, 2, 1)
    v = psi.to_vector()
    iota = np.bincount(ib * 15 + ia, weights=sg * v[iout], minlength=90).reshape(6, 15)
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

    Validation: omega^3 nondegenerate, omega ^ psi = 0, psi stable of
    complex type, J^2 = -I, and g = omega(., J.) positive definite (the
    residual sign freedom in J is resolved by this last requirement).
    """

    __slots__ = ("algebra", "omega", "psi", "J", "lam", "psi_hat", "metric")

    def __init__(self, algebra, omega, psi):
        if algebra.dim != 6:
            raise ValueError("SU(3)-structures need a 6-dimensional algebra")
        if omega.dim != 6 or omega.degree != 2:
            raise ValueError("omega must be a 2-form in dimension 6")
        scale = max(omega.norm(), 1.0) ** 3
        top = wedge(wedge(omega, omega), omega).coefficient(tuple(range(1, 7)))
        if abs(top) <= 1e-12 * scale:
            raise ValueError("omega is degenerate (omega^3 = 0)")
        compat = wedge(omega, psi).norm()
        if compat > 1e-10 * max(1.0, omega.norm() * psi.norm()):
            raise ValueError(f"omega ^ psi != 0 (norm {compat:.3e})")
        J, lam = hitchin_j(algebra, psi)
        w = _dense(omega.to_vector(), 6, 2).reshape(6, 6)
        g = w @ J
        if not Metric(g).positive_definite:
            J = -J
            g = w @ J
        metric = Metric(g)
        if not metric.positive_definite:
            raise ValueError("omega(., J.) is not positive definite for either sign of J")
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
        lhs = wedge(self.psi, self.psi_hat)
        rhs = (2.0 / 3.0) * wedge(wedge(self.omega, self.omega), self.omega)
        return (lhs - rhs).norm()

    def __repr__(self):
        return f"SU3Structure(algebra={self.algebra!r})"


def psi_hat(structure):
    """Dual 3-form psi_hat; psi + i psi_hat is a complex volume form and
    psi ^ psi_hat = 2/3 omega^3."""
    return structure.psi_hat


@dataclass(frozen=True)
class SU3Class:
    """Detected structure type with the proportionality constant of d omega = c psi."""
    half_flat: bool
    coupled: bool
    symplectic_half_flat: bool
    nearly_kahler: bool
    c: float
    residuals: dict


def su3_classify(structure, tol=1e-8):
    """Detect half-flat / coupled / symplectic half-flat / nearly Kahler.

    Half-flat: d(omega^2) = 0 and d psi = 0.  The constant c of
    d omega = c psi is fit by least squares; `coupled` additionally needs
    the fit residual to vanish and d omega != 0, while c = 0 (i.e. omega
    symplectic) gives symplectic half-flat.  Nearly Kahler additionally
    requires d psi_hat = -2/3 c omega^2.
    """
    S = structure
    L = S.algebra
    d_omega = ce_diff(L, S.omega)
    omega2 = wedge(S.omega, S.omega)
    d_omega2_norm = ce_diff(L, omega2).norm()
    d_psi_norm = ce_diff(L, S.psi).norm()
    half_flat = d_omega2_norm <= tol and d_psi_norm <= tol

    pv, dv = S.psi.to_vector(), d_omega.to_vector()
    c = float(pv @ dv / (pv @ pv))
    coupled_residual = (d_omega - c * S.psi).norm()
    proportional = coupled_residual <= tol
    symplectic = half_flat and d_omega.norm() <= tol
    coupled = half_flat and proportional and not symplectic

    nk_residual = (ce_diff(L, S.psi_hat) + (2.0 / 3.0) * c * omega2).norm()
    nearly_kahler = coupled and nk_residual <= tol

    if symplectic:
        c = 0.0
    return SU3Class(half_flat, coupled, symplectic, nearly_kahler, c,
                    residuals={"d_omega2": d_omega2_norm, "d_psi": d_psi_norm,
                               "coupled_fit": coupled_residual, "nearly_kahler": nk_residual})


def g2_product(structure, extension=None):
    """The 3-form omega ^ e7 + psi on a one-dimensional extension.

    With no extension given, the line is attached trivially (d e7 = 0,
    no transport), and the induced metric is the product g + (e7)^2; a
    supplied 7-dimensional algebra is validated to restrict to the base
    algebra (its d e^i may only add terms against e7, and d e7 = 0).
    """
    S = structure
    if extension is None:
        duals = [f.embed(7) for f in S.algebra.dual_differential] + [KForm.zero(7, 2)]
        name = f"{S.algebra.name}+R" if S.algebra.name else None
        extension = LieAlgebra(duals, name=name)
    else:
        if extension.dim != 7:
            raise ValueError("extension must be 7-dimensional")
        if extension.dual_differential[6].norm() > 1e-12:
            raise ValueError("extension must have d e7 = 0")
        for i in range(6):
            restricted = KForm(6, 2, {k: v for k, v in extension.dual_differential[i].items()
                                      if 7 not in k})
            if not restricted.allclose(S.algebra.dual_differential[i], tol=1e-12):
                raise ValueError(f"extension does not restrict to the base algebra at e{i + 1}")
    phi = wedge(S.omega.embed(7), KForm.basis(7, (7,))) + S.psi.embed(7)
    return G2Structure(extension, phi)
