"""Brute-force reference implementations used to freeze expected values.

Forms are expanded to dense alternating tensors indexed by evaluation on
basis tuples; products and stars are computed from the pointwise definitions
(permutation sums, linear solves), sharing no index-merging logic with the
package under test.
"""
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from g2lab import curvature
from g2lab.curvature import SolitonCertificate, riemann
from g2lab.exterior import (KForm, Metric, _complement, _dense_tables, _inner, _interior_vec,
                            _star, _wedge_vec, form_inner, hodge_star, index_positions,
                            multi_indices, sort_with_sign, wedge, wedge_matrix)
from g2lab.g2core import (PositivityError, TorsionForms, TorsionSolveError, _codifferential_table,
                          _phi_metric, torsion_forms)
from g2lab.liealg import _RANK_CUTOFF, _rank, ce_diff, derivation_space
from g2lab.su3 import SU3Class, hitchin_j


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def dense(form):
    """Dense alternating tensor T[i1..ik] = form(e_{i1+1}, ..., e_{ik+1})."""
    t = np.zeros((form.dim,) * form.degree)
    for key, c in form.items():
        for perm in itertools.permutations(range(form.degree)):
            idx = tuple(key[p] - 1 for p in perm)
            t[idx] = perm_sign(perm) * c
    return t


def dense_to_form(dim, degree, t):
    return KForm(dim, degree, {key: t[tuple(i - 1 for i in key)]
                               for key in multi_indices(dim, degree)})


def brute_wedge(a, b):
    """Wedge via the alternation formula
    (a ^ b)(v_1..v_{k+l}) = 1/(k! l!) sum_sigma sgn(sigma) a(...) b(...),
    enumerating only the nonzero terms of the dense tensors."""
    ta, tb = dense(a), dense(b)
    k, l = a.degree, b.degree
    nz_a = [(idx, ta[idx]) for idx in zip(*np.nonzero(ta))]
    nz_b = [(idx, tb[idx]) for idx in zip(*np.nonzero(tb))]
    norm = math.factorial(k) * math.factorial(l)
    terms = {}
    for idx_a, va in nz_a:
        for idx_b, vb in nz_b:
            combined = idx_a + idx_b
            if len(set(combined)) != k + l:
                continue
            key = tuple(sorted(i + 1 for i in combined))
            terms.setdefault(key, []).append(perm_sign(combined) * va * vb / norm)
    # each coefficient summed exactly, so only the products round
    return KForm(a.dim, k + l, {key: math.fsum(t) for key, t in terms.items()})


def dict_wedge(a, b):
    """Wedge by a dict loop over the key pairs of a and b, each product merged
    into its sorted key with the permutation sign."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key, sign = sort_with_sign(ka + kb)
            if sign == 0:
                continue
            out[key] = out.get(key, 0.0) + sign * va * vb
    return KForm(a.dim, a.degree + b.degree, out)


def _leibniz_d_basis(n, terms, key):
    # Leibniz: d e^{i1..ik} = sum_m (-1)^{m-1} e^{<m} ^ de^{im} ^ e^{>m};
    # de^{im} has even degree, so it can be pulled to the front.  terms[i - 1]
    # are the (key, coefficient) pairs of de^i; each coefficient of d e^I is
    # summed in one dict, term by term in increasing m.
    out = {}
    for m, i in enumerate(key):
        rest = key[:m] + key[m + 1:]
        for pair, value in terms[i - 1]:
            merged, sign = sort_with_sign(pair + rest)
            if sign:
                out[merged] = out.get(merged, 0.0) + ((-1.0) ** m * sign) * value
    vec = np.zeros(len(multi_indices(n, len(key) + 1)))
    pos = index_positions(n, len(key) + 1)
    for merged, value in out.items():
        vec[pos[merged]] = value
    return vec


def leibniz_diff_matrix(algebra, k):
    """Matrix of d on k-forms, column by column: the Leibniz expansion of each
    basis form, merging each product's indices with their sign in a dict."""
    n = algebra.dim
    keys = multi_indices(n, k)
    rows = len(multi_indices(n, k + 1))
    mat = np.zeros((rows, len(keys)))
    if k > 0:
        terms = [tuple(form.items()) for form in algebra.dual_differential]
        for col, key in enumerate(keys):
            mat[:, col] = _leibniz_d_basis(n, terms, key)
    return mat


def brute_interior(vector, a):
    t = dense(a)
    contracted = np.tensordot(np.asarray(vector, float), t, axes=(0, 0))
    return dense_to_form(a.dim, a.degree - 1, contracted)


def interior(vector, a):
    """Interior product iota_v a for a coefficient vector v over the basis, as
    one scatter through `interior_table` (`exterior._interior_vec`); raises on 0-forms."""
    v = np.asarray(vector, dtype=float)
    if v.shape != (a.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({a.dim},)")
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    n, k = a.dim, a.degree
    return KForm.from_vector(n, k - 1, _interior_vec(n, k, v, a.to_vector()))


def embed(form, dim):
    """The same coefficients in a larger ambient dimension."""
    pos = index_positions(dim, form.degree)
    vec = np.zeros(len(pos))
    vec[[pos[key] for key in multi_indices(form.dim, form.degree)]] = form.to_vector()
    return KForm.from_vector(dim, form.degree, vec)


def codifferential(algebra, metric, a):
    """delta = (-1)^k star^{-1} d star on k-forms through KForm `hodge_star`s
    and `ce_diff`; 0-forms map to zero."""
    if a.degree == 0:
        return KForm.zero(a.dim, 0)
    n, k = a.dim, a.degree
    da = ce_diff(algebra, hodge_star(metric, a))
    p = n - k + 1
    inv_sign = (-1.0) ** (p * (n - p))
    return ((-1.0) ** k) * inv_sign * hodge_star(metric, da)


def stepwise_codifferential(algebra, phi_vec):
    """(star(phi), delta phi, d delta phi) of a 3-form's coefficients, the
    codifferential a step at a time: star(phi) / sqrt(det g) as the signed
    complement of the raised phi's increasing entries (`_phi_metric`), then
    d on 4-forms, then the 49 x 21 matrix of `_codifferential_table`, the
    congruence by g and the gather of the 2-form.  star(phi) is that
    complement times sqrt(det g), as `G2Structure` keeps it."""
    raised, _, _, (g, _, sqrt_det) = _phi_metric(phi_vec)
    star_phi = _complement(raised[_dense_tables(7, 3)[3]], 7, 3)
    minus, _, _, flat = _codifferential_table()
    t = (minus @ (algebra.diff_matrix(4) @ star_phi)).reshape(7, 7)
    delta_phi = (g @ t @ g).reshape(-1)[flat]
    return sqrt_det * star_phi, delta_phi, algebra.diff_matrix(2) @ delta_phi


def kform_lee_form(structure):
    """Lee form theta = -1/4 star(star(d phi) ^ phi) through KForm `ce_diff`,
    `hodge_star`s and `wedge`."""
    G = structure
    inner = wedge(hodge_star(G.metric, ce_diff(G.algebra, G.phi)), G.phi)
    return -0.25 * hodge_star(G.metric, inner)


def _null_space(mat):
    """Orthonormal null-space basis of `mat` as rows, past its `_rank`."""
    rank, vh = _rank(mat)
    return vh[rank:]


def lambda2_14_basis(structure):
    """Orthonormal basis (as columns) of {alpha in Lambda^2 : alpha ^ star(phi) = 0}."""
    return _null_space(wedge_matrix(7, 2, 4, structure._star_phi_vec)).T


def lambda3_27_basis(structure):
    """Orthonormal basis of {beta in Lambda^3 : beta ^ phi = 0, beta ^ star(phi) = 0}."""
    return _null_space(np.vstack([wedge_matrix(7, 3, 3, structure.phi.to_vector()),
                                  wedge_matrix(7, 3, 4, structure._star_phi_vec)])).T


def compound_matrix(M, degree):
    """k-th compound: matrix of minors det(M[I, J]) over increasing k-tuples.

    For a metric inverse this is the Gram matrix of basis k-forms.  Degrees
    1..3 use closed-form determinants; larger ones fall back to batched LU.
    """
    n = M.shape[0]
    if degree == 0:
        return np.ones((1, 1))
    idx = np.array(multi_indices(n, degree), dtype=np.intp) - 1
    if degree == 1:
        return M.copy()
    r = [idx[:, t][:, None] for t in range(degree)]
    c = [idx[:, t][None, :] for t in range(degree)]
    if degree == 2:
        return M[r[0], c[0]] * M[r[1], c[1]] - M[r[0], c[1]] * M[r[1], c[0]]
    if degree == 3:
        return (M[r[0], c[0]] * (M[r[1], c[1]] * M[r[2], c[2]] - M[r[1], c[2]] * M[r[2], c[1]])
                - M[r[0], c[1]] * (M[r[1], c[0]] * M[r[2], c[2]] - M[r[1], c[2]] * M[r[2], c[0]])
                + M[r[0], c[2]] * (M[r[1], c[0]] * M[r[2], c[1]] - M[r[1], c[1]] * M[r[2], c[0]]))
    sub = M[idx[:, None, :, None], idx[None, :, None, :]]
    return np.linalg.det(sub)


@functools.lru_cache(maxsize=None)
def loop_complement_data(dim, degree):
    """Complement positions and shuffle signs for the Hodge pairing, one tuple
    at a time: for each increasing I, the position of Ic among the
    (dim-degree)-tuples and the sign of the shuffle (I, Ic)."""
    pos_nk = index_positions(dim, dim - degree)
    full = set(range(1, dim + 1))
    positions, signs = [], []
    for idx in multi_indices(dim, degree):
        comp = tuple(sorted(full - set(idx)))
        _, s = sort_with_sign(idx + comp)
        positions.append(pos_nk[comp])
        signs.append(float(s))
    return np.array(positions, dtype=np.intp), np.array(signs)


def compound_star(metric, a):
    """Hodge star through the compound Gram matrix of the metric inverse:
    star(a)_{Ic} = sign(I, Ic) sqrt(det g) (C_k(g^{-1}) a)_I."""
    n, k = a.dim, a.degree
    pos, s = loop_complement_data(n, k)
    out = np.empty(len(pos))
    out[pos] = s * (metric.sqrt_det * (compound_matrix(metric.inverse, k) @ a.to_vector()))
    return KForm.from_vector(n, n - k, out)


def compound_inner(metric, a, b):
    """<a, b> = a . C_k(g^{-1}) b."""
    return float(a.to_vector() @ compound_matrix(metric.inverse, a.degree) @ b.to_vector())


def brute_inner(metric, a, b):
    """<a, b> = 1/k! a_{i...} b^{i...} with indices raised by the metric inverse."""
    ta, tb = dense(a), dense(b)
    ginv = np.linalg.inv(metric.g)
    for axis in range(b.degree):
        tb = np.tensordot(tb, ginv, axes=(0, 0))
    return float(np.tensordot(ta, tb, axes=a.degree)) / math.factorial(a.degree)


@functools.lru_cache(maxsize=None)
def _top_pairing(n, k):
    """Matrix of the e^{1..n} coefficients of e^I ^ e^J, I a k-tuple and J an
    (n-k)-tuple; it depends on (n, k) alone, so it is built once."""
    full = tuple(range(1, n + 1))
    return np.array([[brute_wedge(KForm.basis(n, key), KForm.basis(n, out)).coefficient(full)
                      for out in multi_indices(n, n - k)]
                     for key in multi_indices(n, k)])


def brute_gram(phi_vec):
    """B_ij, the e^{1..7} coefficient of iota_i phi ^ iota_j phi ^ phi, from
    `brute_interior` and `brute_wedge`: the 4-form iota_i phi ^ iota_j phi
    by the alternation sum, and its top coefficient against phi by
    bilinearity, through the brute-force wedges of basis forms in `_top_pairing`."""
    phi = KForm.from_vector(7, 3, phi_vec)
    iota = [brute_interior(e, phi) for e in np.eye(7)]
    top = _top_pairing(7, 4) @ phi.to_vector()
    B = np.empty((7, 7))
    for i in range(7):
        for j in range(i, 7):
            B[i, j] = B[j, i] = brute_wedge(iota[i], iota[j]).to_vector() @ top
    return B


def brute_hodge(metric, a):
    """Solve e^I ^ x = <e^I, a> sqrt(det g) e^{1..n} for x over the basis."""
    n, k = a.dim, a.degree
    rhs = [brute_inner(metric, KForm.basis(n, key), a) * math.sqrt(np.linalg.det(metric.g))
           for key in multi_indices(n, k)]
    sol = np.linalg.solve(_top_pairing(n, k), np.array(rhs))
    return KForm.from_vector(n, n - k, sol)


def loop_hitchin_j(psi):
    """(J, lambda) of a stable 3-form in dimension 6, one basis vector at a
    time: K[i, j] = (-1)^i times the e^{1..6 - (i+1)} coefficient of
    iota_{e_j} psi ^ psi, with the brute-force interior and the dict wedge."""
    K = np.zeros((6, 6))
    full = tuple(range(1, 7))
    for j in range(6):
        mu = dict_wedge(brute_interior(np.eye(6)[j], psi), psi)
        for i in range(6):
            K[i, j] = ((-1.0) ** i) * mu.coefficient(full[:i] + full[i + 1:])
    lam = float(np.trace(K @ K)) / 6.0
    return K / np.sqrt(-lam), lam


def loop_psi_hat(psi, J):
    """psi_hat(X, Y, Z) = -psi(JX, Y, Z), antisymmetrised over the six
    permutations of the dense tensor and read off one increasing key at a time."""
    t = -np.einsum("ma,mbc->abc", J, dense(psi))
    alt = (t + np.einsum("bca->abc", t) + np.einsum("cab->abc", t)
           - np.einsum("bac->abc", t) - np.einsum("acb->abc", t)
           - np.einsum("cba->abc", t)) / 6.0
    return KForm(6, 3, {key: alt[tuple(i - 1 for i in key)] for key in multi_indices(6, 3)})


def two_attempt_su3_frame(algebra, omega, psi):
    """(J, metric) of an SU(3) pair as built before the sign of J was read off
    g[0, 0]: the Metric of omega(., J.) for +J, and for -J when that one is
    not positive definite."""
    J, _ = hitchin_j(algebra, psi)
    w = dense(omega)
    try:
        return J, Metric(w @ J)
    except ValueError:
        pass
    try:
        return -J, Metric(w @ -J)
    except ValueError:
        raise ValueError("omega(., J.) is not positive definite for either sign of J") from None


def kform_normalization_residual(structure):
    """|| psi ^ psi_hat - 2/3 omega^3 || with KForm wedges."""
    S = structure
    lhs = S.psi.wedge(S.psi_hat)
    rhs = (2.0 / 3.0) * S.omega.wedge(S.omega).wedge(S.omega)
    return (lhs - rhs).norm()


def kform_su3_classify(structure, tol):
    """`su3.su3_classify` with KForm wedges and `ce_diff`."""
    S = structure
    L = S.algebra
    d_omega = ce_diff(L, S.omega)
    omega2 = S.omega.wedge(S.omega)
    d_omega2_norm = ce_diff(L, omega2).norm()
    d_psi_norm = ce_diff(L, S.psi).norm()
    half_flat = d_omega2_norm <= tol and d_psi_norm <= tol

    pv, dv = S.psi.to_vector(), d_omega.to_vector()
    c = float(pv @ dv / (pv @ pv))
    coupled_residual = (d_omega - c * S.psi).norm()
    symplectic = half_flat and d_omega.norm() <= tol
    coupled = half_flat and coupled_residual <= tol and not symplectic

    nk_residual = (ce_diff(L, S.psi_hat) + (2.0 / 3.0) * c * omega2).norm()
    return SU3Class(half_flat, coupled, symplectic, coupled and nk_residual <= tol,
                    0.0 if symplectic else c,
                    residuals={"d_omega2": d_omega2_norm, "d_psi": d_psi_norm,
                               "coupled_fit": coupled_residual, "nearly_kahler": nk_residual})


def kform_product_phi(structure):
    """omega ^ e7 + psi on the product with a line, from KForm embeds and wedges."""
    S = structure
    return embed(S.omega, 7).wedge(KForm.basis(7, (7,))) + embed(S.psi, 7)


def frame_star_ricci(structure):
    """Ric* contracted in a g-orthonormal frame f = g^{-1/2} e with the
    five-operand einsums (R_abcd phi_abs phi_cdm), mapped back to the e_i basis."""
    g = structure.metric.g
    w, v = np.linalg.eigh(g)
    s, s_inv = (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T
    r4 = np.einsum("ijkm,ml->ijkl", riemann(structure.algebra, structure.metric), g)
    r4f = np.einsum("ia,jb,kc,ld,ijkl->abcd", s_inv, s_inv, s_inv, s_inv, r4, optimize=True)
    phif = np.einsum("ia,jb,kc,ijk->abc", s_inv, s_inv, s_inv, dense(structure.phi),
                     optimize=True)
    ric_f = np.einsum("ijkl,ijs,klm->sm", r4f, phif, phif, optimize=True)
    return s @ ((ric_f + ric_f.T) / 2.0) @ s


def loop_derivation_equations(algebra):
    """Derivation equations D[e_i,e_j] = [De_i,e_j] + [e_i,De_j], one row per
    (i<j, k), filled one row at a time."""
    n = algebra.dim
    B = algebra.bracket
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    eqs = np.zeros((len(pairs) * n, n * n))
    for r, (i, j) in enumerate(pairs):
        for k in range(n):
            row = np.zeros((n, n))
            row[k, :] += B[i, j, :]          # D[x,y] term: c^m_{ij} D_{km}
            row[:, i] -= B[:, j, k]          # [Dx,y] term: D_{mi} c^k_{mj}
            row[:, j] -= B[i, :, k]          # [x,Dy] term: D_{mj} c^k_{im}
            eqs[r * n + k] = row.reshape(-1)
    return eqs


def lstsq_soliton(algebra, metric):
    """Soliton fit Ric = lambda I + D by one least-squares solve over the
    columns vec(I) and the derivation basis, the minimum-norm solution when I
    is a derivation.  Reads `curvature.ricci_operator` through the module, so
    a test that replaces it there fits the same matrix as `soliton_solve`."""
    n = algebra.dim
    ric_op = curvature.ricci_operator(algebra, metric)
    ders = derivation_space(algebra)
    A = np.column_stack([np.eye(n).reshape(-1)] + [d.reshape(-1) for d in ders])
    x, *_ = np.linalg.lstsq(A, ric_op.reshape(-1), rcond=_RANK_CUTOFF)
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


def lstsq_torsion(structure, tau1_tol=1e-8):
    """Torsion forms by least squares over the invariant subspaces: d phi over
    [star(phi) | 3 e^i ^ phi | star(Lambda^3_27)] and d star(phi) over
    [4 e^i ^ star(phi) | Lambda^2_14 ^ phi], the two null-space bases taken
    by SVD and the 3-form stars through the compound Gram matrix."""
    G = structure
    dphi = ce_diff(G.algebra, G.phi)
    dstar = ce_diff(G.algebra, G.star_phi)

    basis14 = lambda2_14_basis(G)
    basis27 = lambda3_27_basis(G)

    e_wedge_phi = wedge_matrix(7, 1, 3, G.phi.to_vector())
    pos, s = loop_complement_data(7, 3)
    star27 = np.empty_like(basis27)
    star27[pos] = s[:, None] * (G.metric.sqrt_det * (compound_matrix(G.metric.inverse, 3)
                                                     @ basis27))
    A1 = np.column_stack([G._star_phi_vec, 3.0 * e_wedge_phi, star27])
    b1 = dphi.to_vector()
    x, *_ = np.linalg.lstsq(A1, b1, rcond=None)

    e_wedge_star = wedge_matrix(7, 1, 4, G._star_phi_vec)
    phi_wedge = wedge_matrix(7, 2, 3, G.phi.to_vector())
    A2 = np.column_stack([4.0 * e_wedge_star, phi_wedge @ basis14])
    b2 = dstar.to_vector()
    y, *_ = np.linalg.lstsq(A2, b2, rcond=None)

    tau1_mismatch = float(np.linalg.norm(x[1:8] - y[:7]))
    if tau1_mismatch > tau1_tol:
        raise TorsionSolveError(tau1_mismatch, tau1_tol)

    tau0 = float(x[0])
    tau1 = KForm.from_vector(7, 1, x[1:8])
    tau3 = KForm.from_vector(7, 3, basis27 @ x[8:])
    tau2 = KForm.from_vector(7, 2, basis14 @ y[7:])
    residual = max(float(np.linalg.norm(A1 @ x - b1)), float(np.linalg.norm(A2 @ y - b2)))
    return TorsionForms(tau0, tau1, tau2, tau3, residual, tau1_mismatch)


def bryant_torsion(structure):
    """The unchecked TorsionForms of `g2core.torsion_forms` by Bryant's four
    projections alone, on coefficient vectors: seven stars and eight wedges,

        tau3 = star(d phi - tau0 star(phi) - 3 tau1 ^ phi)
        tau2 = -epsilon star(d star(phi) - 4 tau1 ^ star(phi)),

    with tau0, tau1 and its consistency gap as `g2core._torsion` takes them."""
    G = structure
    m, phi, psi = G.metric, G.phi.to_vector(), G._star_phi_vec
    dphi = G.algebra.diff_matrix(3) @ phi
    dpsi = G.algebra.diff_matrix(4) @ psi

    tau0 = float(_star(_wedge_vec(7, 4, 3, dphi, phi), 7, m)[0]) / 7.0
    tau1 = -_star(_wedge_vec(7, 3, 3, _star(dphi, 4, m), phi), 6, m) / 12.0
    tau1_b = _star(_wedge_vec(7, 2, 4, _star(dpsi, 5, m), psi), 6, m) / 12.0
    tau3 = _star(dphi - tau0 * psi - 3.0 * _wedge_vec(7, 1, 3, tau1, phi), 4, m)
    tau2 = -G.orientation * _star(dpsi - 4.0 * _wedge_vec(7, 1, 4, tau1, psi), 5, m)
    residual = max(float(np.linalg.norm(_wedge_vec(7, 3, 3, tau3, phi))),
                   float(np.linalg.norm(_wedge_vec(7, 3, 4, tau3, psi))),
                   float(np.linalg.norm(_wedge_vec(7, 2, 4, tau2, psi))))
    return TorsionForms(tau0, KForm.from_vector(7, 1, tau1), KForm.from_vector(7, 2, tau2),
                        KForm.from_vector(7, 3, tau3), residual,
                        float(np.linalg.norm(tau1 - tau1_b)))


def ricci_trace_scalar_curvature(algebra, metric):
    """Scalar curvature as the trace of `curvature.ricci_operator`: the
    Levi-Civita connection, the contracted Ricci tensor and g^-1 Ric."""
    return float(np.trace(curvature.ricci_operator(algebra, metric)))


def star_torsion_terms(structure):
    """(delta tau1, |tau1|^2, |tau2|^2, |tau3|^2) on coefficient vectors with
    stars and compounds: delta tau1 = -star d star tau1 through `_star` and
    the differential matrix, each |tau_k|^2 through `_inner`."""
    t = torsion_forms(structure)
    m = structure.metric
    v1, v2, v3 = (form.to_vector() for form in (t.tau1, t.tau2, t.tau3))
    delta_tau1 = -float(_star(structure.algebra.diff_matrix(6) @ _star(v1, 1, m), 7, m)[0])
    return delta_tau1, _inner(v1, v1, 1, m), _inner(v2, v2, 2, m), _inner(v3, v3, 3, m)


def star_scal_from_torsion(structure):
    """12 delta(tau1) + 21/8 tau0^2 + 30 |tau1|^2 - 1/2 |tau2|^2 - 1/2 |tau3|^2
    from `star_torsion_terms`, two stars and three compounds."""
    delta_tau1, tau1_sq, tau2_sq, tau3_sq = star_torsion_terms(structure)
    return (12.0 * delta_tau1
            + (21.0 / 8.0) * torsion_forms(structure).tau0 ** 2
            + 30.0 * tau1_sq
            - 0.5 * tau2_sq
            - 0.5 * tau3_sq)


def transposed_view_compound_dense(M, t, degree):
    """`exterior._compound_dense` with the last product taken against the
    transposed view M.T rather than a contiguous copy of it; degree >= 2."""
    n = M.shape[0]
    for j in range(degree - 2):
        t = M @ t.reshape(n ** j, n, -1)
    return (M @ t.reshape(-1, n, n) @ M.T).reshape(-1)


def kform_scal_from_torsion(structure):
    """12 delta(tau1) + 21/8 tau0^2 + 30 |tau1|^2 - 1/2 |tau2|^2 - 1/2 |tau3|^2
    on KForms: `codifferential` of tau1 (two `hodge_star`s and `ce_diff`) and
    three `form_inner` calls."""
    t = torsion_forms(structure)
    delta_tau1 = codifferential(structure.algebra, structure.metric, t.tau1).coefficient(())
    return (12.0 * delta_tau1
            + (21.0 / 8.0) * t.tau0 ** 2
            + 30.0 * form_inner(structure.metric, t.tau1, t.tau1)
            - 0.5 * form_inner(structure.metric, t.tau2, t.tau2)
            - 0.5 * form_inner(structure.metric, t.tau3, t.tau3))


def projected_einstein_calibrated_residual(structure):
    """|P(d tau2 - 1/2 star(tau2 ^ tau2))|_g with P x = x - <x, phi>_g phi / 7.

    The residual of d tau2 = 3/14 |tau2|^2 phi + 1/2 star(tau2 ^ tau2) with no
    use of 3/14: on a closed phi, <d tau2, phi>_g = |tau2|^2 and
    <star(tau2 ^ tau2), phi>_g = -|tau2|^2, so the residual form has no phi
    component (|phi|^2 = 7) and equals its projection P."""
    G, g = structure, structure.metric
    tau2 = torsion_forms(G).tau2
    x = ce_diff(G.algebra, tau2) - 0.5 * hodge_star(g, wedge(tau2, tau2))
    x = x - (form_inner(g, x, G.phi) / 7.0) * G.phi
    return math.sqrt(max(form_inner(g, x, x), 0.0))


def loop_wedge_table(dim, k, l):
    """The wedge COO table (ia, ib, iout, sign), one (a, b) pair at a time,
    sorting each disjoint a + b with its sign."""
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


@functools.lru_cache(maxsize=None)
def loop_dense_tables(dim, degree):
    """The dense-tensor scatter table (src, dst, sign, flat), one ordering of
    one increasing tuple at a time, with `sort_with_sign` for the sign."""
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


def fraction_det(M):
    """Determinant of a float matrix by Gaussian elimination in exact rational
    arithmetic, rounded to a float once at the end."""
    a = [[Fraction(x) for x in row] for row in np.asarray(M, dtype=float).tolist()]
    det = Fraction(1)
    for i in range(len(a)):
        p = next((r for r in range(i, len(a)) if a[r][i] != 0), None)
        if p is None:
            return 0.0
        if p != i:
            a[i], a[p] = a[p], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return float(det)


def metric_star_laplacian(algebra, phi_vec):
    """The phi-Laplacian through a full Metric and four Hodge stars: B by
    `brute_gram`, det B by LU, g = (36 |det B|)^{-1/9} sign(det B) B
    factorised again by `Metric`, then d delta phi + delta d phi with
    delta = (-1)^k star d star."""
    B = brute_gram(phi_vec)
    det_b = float(np.linalg.det(B))
    if det_b == 0:
        raise PositivityError("not a positive G2 form (det B = 0)")
    eps = 1.0 if det_b > 0 else -1.0
    try:
        metric = Metric((36.0 * abs(det_b)) ** (-1.0 / 9.0) * eps * B)
    except ValueError:
        raise PositivityError("not a positive G2 form (metric not positive definite)") from None
    d2, d3, d4 = algebra.diff_matrix(2), algebra.diff_matrix(3), algebra.diff_matrix(4)
    delta_phi = -_star(d4 @ _star(phi_vec, 3, metric), 5, metric)
    delta_dphi = _star(d3 @ _star(d3 @ phi_vec, 4, metric), 4, metric)
    return d2 @ delta_phi + delta_dphi


def _check_interval(t, lower, label):
    if not math.isfinite(t) or t <= lower:
        raise ValueError(f"t = {t} outside the existence interval ({lower}, +inf) of {label}")


_N2_CONSTANT = {(1, 4, 7): 1.0, (2, 6, 7): 1.0, (3, 5, 7): 1.0,
                (1, 5, 6): 1.0, (2, 4, 5): 1.0, (3, 4, 6): -1.0}

_N12_CONSTANT = {(1, 2, 4): -1.0, (1, 6, 7): 1.0, (2, 5, 7): 1.0,
                 (3, 4, 7): 1.0, (4, 5, 6): -1.0}


def hand_closed_form_n2(t):
    """The n2 flow written out: only the e^{123} coefficient moves, as
    (10/3 t + 1)^{3/5}; t > -3/10."""
    _check_interval(t, -0.3, "the n2 solution")
    coeffs = dict(_N2_CONSTANT)
    coeffs[(1, 2, 3)] = (10.0 * t / 3.0 + 1.0) ** 0.6
    return KForm(7, 3, coeffs)


def hand_closed_form_n2_velocity(t):
    _check_interval(t, -0.3, "the n2 solution")
    return KForm(7, 3, {(1, 2, 3): 2.0 * (10.0 * t / 3.0 + 1.0) ** (-0.4)})


def hand_closed_form_n12(t):
    """The n12_modified_basis flow written out: the e^{135} - e^{236}
    component scales as (t/3 + 1)^{3/4}; t > -3."""
    _check_interval(t, -3.0, "the n12 solution")
    a = (t / 3.0 + 1.0) ** 0.75
    coeffs = dict(_N12_CONSTANT)
    coeffs[(1, 3, 5)] = a
    coeffs[(2, 3, 6)] = -a
    return KForm(7, 3, coeffs)


def hand_closed_form_n12_velocity(t):
    _check_interval(t, -3.0, "the n12 solution")
    a = 0.25 * (t / 3.0 + 1.0) ** (-0.25)
    return KForm(7, 3, {(1, 3, 5): a, (2, 3, 6): -a})


def derivation_action(D, form):
    """D.form for an endomorphism D of the algebra, from the dense tensor:
    (D.a)(x1, ..., xk) = -sum_j a(x1, ..., D xj, ..., xk)."""
    t = dense(form)
    out = np.zeros_like(t)
    for axis in range(form.degree):
        # a(..., D x, ...) contracts D's output index with the slot's
        out -= np.moveaxis(np.tensordot(t, D, axes=([axis], [0])), -1, axis)
    return dense_to_form(form.dim, form.degree, out)
