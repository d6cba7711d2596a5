"""Left-invariant curvature of a metric Lie algebra.

The Levi-Civita connection comes from the Koszul formula, which for
left-invariant fields has no derivative terms; Ricci is the trace of the
full curvature tensor taken inside its formula, so one code path serves
nilpotent and solvable (non-unimodular) algebras alike.

The two scalar curvatures take no connection and no Hodge star: each is
a sum of contractions of the bracket or the torsion forms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import (KForm, _complement, _dense, _line_positions, form_inner, hodge_star,
                       multi_indices)
from .g2core import VANISH_TOL, classify, torsion_forms
from .liealg import _RANK_CUTOFF, LieAlgebra, _derivation_basis, ce_diff, derivation_residual


def _check_metric(algebra, metric):
    if metric.dim != algebra.dim:
        raise ValueError(f"dimension mismatch: algebra {algebra.dim}, metric {metric.dim}")


def levi_civita(algebra, metric):
    """Connection coefficients Gamma[i, j, k]: nabla_{e_i} e_j = sum_k Gamma[i,j,k] e_k.

    2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y> on basis triples.
    """
    _check_metric(algebra, metric)
    bg = algebra.bracket @ metric.g
    k = 0.5 * (bg - bg.transpose(2, 0, 1) + bg.transpose(1, 2, 0))
    return k @ metric.inverse.T


def riemann(algebra, metric):
    """Curvature R[i,j,k,l]: R(e_i,e_j)e_k = sum_l R[i,j,k,l] e_l,
    with R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_{[X,Y]}."""
    gamma = levi_civita(algebra, metric)
    n = algebra.dim
    # first[i,j,k,l] = sum_m gamma[j,k,m] gamma[i,m,l]
    first = (gamma.reshape(n * n, n) @ gamma).reshape(n, n, n, n)
    return (first - np.transpose(first, (1, 0, 2, 3))
            - (algebra.bracket.reshape(n * n, n) @ gamma.reshape(n, n * n)).reshape(n, n, n, n))


def ricci(algebra, metric):
    """Ricci as a symmetric bilinear form (matrix in the e_i basis), the trace
    R[i,j,k,i] contracted in the formula itself:
    Ric_jk = G_jkm G_imi - G_ikm G_jmi - c_ijm G_mki with G = levi_civita."""
    gamma = levi_civita(algebra, metric)
    n = algebra.dim
    ric = (gamma @ np.einsum("imi->m", gamma)
           - gamma.reshape(n, n * n) @ gamma.transpose(2, 0, 1).reshape(n * n, n)
           - algebra.bracket.transpose(1, 2, 0).reshape(n, n * n)
           @ gamma.transpose(0, 2, 1).reshape(n * n, n))
    return (ric + ric.T) / 2.0


def ricci_operator(algebra, metric):
    return metric.inverse @ ricci(algebra, metric)


def scalar_curvature(algebra, metric):
    """The trace of the Ricci operator, by the formula for left-invariant
    metrics (A. Besse, Einstein Manifolds, 1987, Cor. 7.39; J. Milnor, Adv.
    Math. 21, 1976, for unimodular algebras):

        scal = -1/4 |mu|_g^2 - 1/2 tr(g^-1 K) - h^T g^-1 h,

    |mu|_g^2 = c_ijk c_abl g^ia g^jb g_kl the squared norm of the bracket
    c = `algebra.bracket`, K the Killing form and h the trace vector h_i =
    tr ad_{e_i} (`LieAlgebra._ad_traces`)."""
    _check_metric(algebra, metric)
    n, c, ginv = algebra.dim, algebra.bracket, metric.inverse
    killing, h = algebra._ad_traces
    # c^ab_k = g^ai g^bj c_ijk, then P_kl = c^ab_k c_abl and |mu|_g^2 = g_kl P_kl
    raised = ginv @ (ginv @ c.reshape(n, n * n)).reshape(n, n, n)
    pairing = raised.reshape(n * n, n).T @ c.reshape(n * n, n)
    mu2 = float(metric.g.reshape(-1) @ pairing.reshape(-1))
    # 0.0 - keeps a zero scal +0.0
    return 0.0 - (0.25 * mu2 + 0.5 * float(ginv.reshape(-1) @ killing.reshape(-1))
                  + float(h @ ginv @ h))


def einstein_residual(algebra, metric):
    """Spectral norm of Ric - (Scal/n) g, zero exactly for Einstein metrics:
    the largest |eigenvalue| of that symmetric matrix, with no SVD."""
    ric = ricci(algebra, metric)
    scal = float(np.trace(metric.inverse @ ric))
    return float(np.abs(np.linalg.eigvalsh(ric - (scal / metric.dim) * metric.g)).max())


def scal_from_torsion(structure):
    """Scalar curvature from the torsion forms (R. Bryant, Some remarks on
    G2-structures, arXiv:math/0305124):
    12 delta(tau1) + 21/8 tau0^2 + 30 |tau1|^2 - 1/2 |tau2|^2 - 1/2 |tau3|^2.

    Each term is a contraction, with no star.  With v = g^-1 tau1, psi =
    star(phi), epsilon the orientation and c the signed complement
    (`exterior._complement`):

      * 12 delta(tau1) + 30 |tau1|^2 = v . (12 h + 30 tau1), since on a Lie
        algebra delta(alpha) = h(alpha#), h the trace vector
        (`LieAlgebra._ad_traces`);
      * |tau3|^2 = tau3 . c(d phi) / sqrt(det g), the pairing <tau3, star(d phi)>,
        as tau3 is orthogonal to the Lambda^3_1 and Lambda^3_7 parts of star(d phi);
      * |tau2|^2 = -epsilon tau2 . c(d psi) / sqrt(det g), since d psi =
        4 tau1 ^ psi - epsilon star(tau2) and tau2 ^ psi = 0.
    """
    G = structure
    t, m = torsion_forms(G), G.metric
    tau1 = t.tau1.to_vector()
    dphi = G.algebra.diff_matrix(3) @ G.phi.to_vector()
    dpsi = G.algebra.diff_matrix(4) @ G._star_phi_vec
    tau3_sq = float(t.tau3.to_vector() @ _complement(dphi, 7, 4)) / m.sqrt_det
    tau2_sq = -G.orientation * float(t.tau2.to_vector() @ _complement(dpsi, 7, 5)) / m.sqrt_det
    return (float((m.inverse @ tau1) @ (12.0 * G.algebra._ad_traces[1] + 30.0 * tau1))
            + (21.0 / 8.0) * t.tau0 ** 2
            - 0.5 * tau2_sq
            - 0.5 * tau3_sq)


def star_ricci(structure):
    """Star-Ricci tensor Ric*_cf = R_ijkl phi^ij_c phi^kl_f, symmetrised, as a
    bilinear form in the e_i basis (the two upper indices raised with g^-1)."""
    g = structure.metric
    r4 = riemann(structure.algebra, g).reshape(-1, 7) @ g.g
    p = (g.inverse @ _dense(structure.phi.to_vector(), 7, 3).reshape(7, 49)).reshape(7, 7, 7)
    p = (g.inverse @ p).reshape(49, 7)
    ric = p.T @ (r4.reshape(49, 49) @ p)
    return (ric + ric.T) / 2.0


@dataclass(frozen=True)
class SolitonCertificate:
    """Best decomposition Ric = lambda I + D with D a derivation.

    `residual` is the Frobenius distance of the Ricci operator to the affine
    space lambda I + Der; a certificate with tiny residual exhibits an
    algebraic Ricci soliton.
    """
    lam: float
    derivation: np.ndarray
    residual: float
    classification: str

    @property
    def derivation_diagonal(self):
        return np.diag(self.derivation).copy()


def soliton_solve(algebra, metric):
    """Least-squares fit of Ric = lambda I + D over span{I} + derivations.

    The derivation basis V (rows of `_derivation_basis`) is orthonormal, so the
    fit is a projection: with r = vec(Ric), a = V vec(I) and i_perp =
    vec(I) - V^T a, lambda = <i_perp, r> / |i_perp|^2 and D = V^T V (r -
    lambda vec(I)).  When I is itself a derivation (|i_perp| at most
    `_RANK_CUTOFF` |vec(I)|, abelian algebras) the split is not unique and the
    minimum-norm solution of the least-squares problem in (lambda, V-coordinates)
    is taken: lambda = a . V r / (1 + |a|^2).
    """
    n = algebra.dim
    ric_op = ricci_operator(algebra, metric)
    r, eye = ric_op.reshape(-1), np.eye(n).reshape(-1)
    V = _derivation_basis(algebra)
    a = V @ eye
    i_perp = eye - a @ V
    norm2 = float(i_perp @ i_perp)
    if norm2 > _RANK_CUTOFF ** 2 * n:
        lam = float(i_perp @ r) / norm2
    else:
        lam = float(a @ (V @ r)) / (1.0 + float(a @ a))
    D = ((V @ (r - lam * eye)) @ V).reshape(n, n)
    residual = float(np.linalg.norm(ric_op - lam * np.eye(n) - D))
    scale = max(1.0, float(np.linalg.norm(ric_op)))
    if abs(lam) <= 1e-10 * scale:
        label = "steady"
    elif lam < 0:
        label = "expanding"
    else:
        label = "shrinking"
    return SolitonCertificate(lam, D, residual, label)


def einstein_calibrated_residual(structure, tol=VANISH_TOL):
    """Residual of d tau2 = 3/14 |tau2|^2 phi + 1/2 star(tau2 ^ tau2).

    Defined for calibrated structures only; vanishing is equivalent to the
    induced metric being Einstein.
    """
    t = torsion_forms(structure)
    cls = classify(t, tol=tol)
    if not (cls.tau0_zero and cls.tau1_zero and cls.tau3_zero):
        raise ValueError("structure is not calibrated (closed)")
    g = structure.metric
    d_tau2 = ce_diff(structure.algebra, t.tau2)
    rhs = ((3.0 / 14.0) * form_inner(g, t.tau2, t.tau2)) * structure.phi \
        + 0.5 * hodge_star(g, t.tau2.wedge(t.tau2))
    diff = d_tau2 - rhs
    return float(np.sqrt(max(form_inner(g, diff, diff), 0.0)))


def rank_one_extension(algebra, D):
    """Extend by one dimension with the new generator acting by the derivation D.

    The dual structure equations gain transport terms against e^{n+1}:
    d e^i += sum_j D_ij e^j ^ e^{n+1}, and d e^{n+1} = 0.
    """
    D = np.asarray(D, dtype=float)
    n = algebra.dim
    if D.shape != (n, n):
        raise ValueError(f"derivation must be {n}x{n}")
    res = derivation_residual(algebra, D)
    if res > 1e-10:
        raise ValueError(f"matrix is not a derivation (residual {res:.3e})")
    # row i: d e^i at its embedded positions plus the transport terms at e^{j,n+1}
    base, line = _line_positions(n + 1, 2)
    vecs = np.zeros((n + 1, len(multi_indices(n + 1, 2))))
    vecs[:n, base] = [form.to_vector() for form in algebra.dual_differential]
    vecs[:n, line] = D
    duals = [KForm.from_vector(n + 1, 2, v) for v in vecs]
    return LieAlgebra(duals, name=f"{algebra.name}+R" if algebra.name else None)
