"""Left-invariant curvature of a metric Lie algebra.

The Levi-Civita connection comes from the Koszul formula, which for
left-invariant fields has no derivative terms; Ricci is the trace of the
full curvature tensor taken inside its formula, so one code path serves
nilpotent and solvable (non-unimodular) algebras alike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import KForm, Metric, _dense, form_inner
from .g2core import classify, torsion_forms
from .liealg import LieAlgebra, ce_diff, codifferential, derivation_residual, derivation_space

SOLITON_CUTOFF = 1e-10


def levi_civita(algebra, metric):
    """Connection coefficients Gamma[i, j, k]: nabla_{e_i} e_j = sum_k Gamma[i,j,k] e_k.

    2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y> on basis triples.
    """
    if not metric.positive_definite:
        raise ValueError("metric is not positive definite")
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
    return float(np.trace(ricci_operator(algebra, metric)))


def einstein_residual(algebra, metric):
    """Spectral norm of Ric - (Scal/n) g; zero exactly for Einstein metrics."""
    ric = ricci(algebra, metric)
    scal = float(np.trace(metric.inverse @ ric))
    return float(np.linalg.norm(ric - (scal / algebra.dim) * metric.g, ord=2))


def scal_from_torsion(structure):
    """Scalar curvature from the torsion forms:
    12 delta(tau1) + 21/8 tau0^2 + 30 |tau1|^2 - 1/2 |tau2|^2 - 1/2 |tau3|^2.
    """
    t = torsion_forms(structure)
    delta_tau1 = codifferential(structure.algebra, structure.metric, t.tau1).coefficient(())
    return (12.0 * delta_tau1
            + (21.0 / 8.0) * t.tau0 ** 2
            + 30.0 * structure.inner(t.tau1, t.tau1)
            - 0.5 * structure.inner(t.tau2, t.tau2)
            - 0.5 * structure.inner(t.tau3, t.tau3))


def star_ricci(structure):
    """Star-Ricci tensor Ric*_cf = R_ijkl phi^ij_c phi^kl_f, symmetrised, as a
    bilinear form in the e_i basis (the two upper indices raised with g^-1)."""
    g = structure.metric
    r4 = riemann(structure.algebra, g).reshape(-1, 7) @ g.g
    p = (g.inverse @ _dense(structure._phi_vec, 7, 3).reshape(7, 49)).reshape(7, 7, 7)
    p = (g.inverse @ p).reshape(49, 7)
    ric = p.T @ (r4.reshape(49, 49) @ p)
    return (ric + ric.T) / 2.0


def star_scal(structure):
    return float(np.trace(structure.metric.inverse @ star_ricci(structure)))


def star_einstein_residual(structure):
    """|| Ric* - (Scal*/7) g ||, the obstruction to the star-Einstein condition."""
    ric = star_ricci(structure)
    scal = float(np.trace(structure.metric.inverse @ ric))
    return float(np.linalg.norm(ric - (scal / 7.0) * structure.metric.g, ord=2))


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


def soliton_solve(algebra, metric, cutoff=SOLITON_CUTOFF):
    """Least-squares solve of Ric = lambda I + D over span{I} + derivations.

    Rank deficiency (abelian algebras, where I itself is a derivation) is
    resolved by the minimum-norm solution.
    """
    n = algebra.dim
    ric_op = ricci_operator(algebra, metric)
    ders = derivation_space(algebra, cutoff=cutoff)
    A = np.column_stack([np.eye(n).reshape(-1)] + [d.reshape(-1) for d in ders])
    x, *_ = np.linalg.lstsq(A, ric_op.reshape(-1), rcond=cutoff)
    lam = float(x[0])
    D = (A[:, 1:] @ x[1:]).reshape(n, n)
    residual = float(np.linalg.norm(ric_op - lam * np.eye(n) - D))
    scale = max(1.0, float(np.linalg.norm(ric_op)))
    if abs(lam) <= 1e-10 * scale:
        label = "steady"
    elif lam < 0:
        label = "expanding"
    else:
        label = "shrinking"
    return SolitonCertificate(lam, D, residual, label)


def einstein_calibrated_residual(structure, tol=1e-8):
    """Residual of d tau2 = 3/14 |tau2|^2 phi + 1/2 star(tau2 ^ tau2).

    Defined for calibrated structures only; vanishing is equivalent to the
    induced metric being Einstein.
    """
    return _einstein_calibrated_residual(structure, torsion_forms(structure), tol)


def _einstein_calibrated_residual(structure, t, tol):
    """einstein_calibrated_residual with the torsion forms `t` of the structure given."""
    cls = classify(t, tol=tol)
    if not (cls.tau0_zero and cls.tau1_zero and cls.tau3_zero):
        raise ValueError("structure is not calibrated (closed)")
    g = structure.metric
    d_tau2 = ce_diff(structure.algebra, t.tau2)
    rhs = ((3.0 / 14.0) * form_inner(g, t.tau2, t.tau2)) * structure.phi \
        + 0.5 * structure.star(t.tau2.wedge(t.tau2))
    diff = d_tau2 - rhs
    return float(np.sqrt(max(form_inner(g, diff, diff), 0.0)))


def rank_one_extension(algebra, D, tol=1e-10):
    """Extend by one dimension with the new generator acting by the derivation D.

    The dual structure equations gain transport terms against e^{n+1}:
    d e^i += sum_j D_ij e^j ^ e^{n+1}, and d e^{n+1} = 0.
    """
    D = np.asarray(D, dtype=float)
    n = algebra.dim
    if D.shape != (n, n):
        raise ValueError(f"derivation must be {n}x{n}")
    res = derivation_residual(algebra, D)
    if res > tol:
        raise ValueError(f"matrix is not a derivation (residual {res:.3e})")
    duals = []
    for i in range(n):
        form = algebra.dual_differential[i].embed(n + 1)
        transport = KForm(n + 1, 2, {(j + 1, n + 1): D[i, j] for j in range(n) if D[i, j] != 0.0})
        duals.append(form + transport)
    duals.append(KForm.zero(n + 1, 2))
    name = f"{algebra.name}+R" if algebra.name else None
    return LieAlgebra(duals, name=name)
