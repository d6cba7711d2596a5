"""Brute-force reference implementations used to freeze expected values.

Forms are expanded to dense alternating tensors indexed by evaluation on
basis tuples; products and stars are computed from the pointwise definitions
(permutation sums, linear solves), sharing no index-merging logic with the
package under test.
"""
import functools
import itertools
import math

import numpy as np

from g2lab.curvature import riemann
from g2lab.exterior import KForm, complement_data, multi_indices, sort_with_sign, wedge_matrix
from g2lab.g2core import (TorsionForms, TorsionSolveError, lambda2_14_basis,
                          lambda3_27_basis)


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
    out = {}
    for idx_a, va in nz_a:
        for idx_b, vb in nz_b:
            combined = idx_a + idx_b
            if len(set(combined)) != k + l:
                continue
            key = tuple(sorted(i + 1 for i in combined))
            out[key] = out.get(key, 0.0) + perm_sign(combined) * va * vb / norm
    return KForm(a.dim, k + l, out)


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


def _leibniz_d_basis(algebra, key):
    # Leibniz: d e^{i1..ik} = sum_m (-1)^{m-1} e^{<m} ^ de^{im} ^ e^{>m};
    # de^{im} has even degree, so it can be pulled to the front.
    n = algebra.dim
    out = KForm.zero(n, len(key) + 1)
    for m, i in enumerate(key):
        rest = key[:m] + key[m + 1:]
        term = algebra.dual_differential[i - 1]
        if rest:
            term = dict_wedge(term, KForm.basis(n, rest))
        out = out + ((-1.0) ** m) * term
    return out


def leibniz_diff_matrix(algebra, k):
    """Matrix of d on k-forms, column by column: the Leibniz expansion of each
    basis form through KForm sums and the dict-loop wedge."""
    n = algebra.dim
    keys = multi_indices(n, k)
    rows = len(multi_indices(n, k + 1))
    mat = np.zeros((rows, len(keys)))
    if k > 0:
        for col, key in enumerate(keys):
            mat[:, col] = _leibniz_d_basis(algebra, key).to_vector()
    return mat


def brute_interior(vector, a):
    t = dense(a)
    contracted = np.tensordot(np.asarray(vector, float), t, axes=(0, 0))
    return dense_to_form(a.dim, a.degree - 1, contracted)


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


def compound_star(metric, a):
    """Hodge star through the compound Gram matrix of the metric inverse:
    star(a)_{Ic} = sign(I, Ic) sqrt(det g) (C_k(g^{-1}) a)_I."""
    n, k = a.dim, a.degree
    pos, s = complement_data(n, k)
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
    iota_{e_j} psi ^ psi, with the brute-force interior and the dict wedge.

    The loops run on psi / s, s its largest coefficient, so that the KForm
    prune of the intermediate forms stays below 1e-13 relative at any scale;
    J is scale-invariant and lambda = s^4 lambda(psi / s)."""
    s = psi.sup_norm()
    K = np.zeros((6, 6))
    full = tuple(range(1, 7))
    for j in range(6):
        mu = dict_wedge(brute_interior(np.eye(6)[j], psi / s), psi / s)
        for i in range(6):
            K[i, j] = ((-1.0) ** i) * mu.coefficient(full[:i] + full[i + 1:])
    lam = float(np.trace(K @ K)) / 6.0
    return K / np.sqrt(-lam), s ** 4 * lam


def loop_psi_hat(psi, J):
    """psi_hat(X, Y, Z) = -psi(JX, Y, Z), antisymmetrised over the six
    permutations of the dense tensor and read off one increasing key at a time."""
    t = -np.einsum("ma,mbc->abc", J, dense(psi))
    alt = (t + np.einsum("bca->abc", t) + np.einsum("cab->abc", t)
           - np.einsum("bac->abc", t) - np.einsum("acb->abc", t)
           - np.einsum("cba->abc", t)) / 6.0
    return KForm(6, 3, {key: alt[tuple(i - 1 for i in key)] for key in multi_indices(6, 3)})


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


def lstsq_torsion(structure, tau1_tol=1e-8):
    """Torsion forms by least squares over the invariant subspaces: d phi over
    [star(phi) | 3 e^i ^ phi | star(Lambda^3_27)] and d star(phi) over
    [4 e^i ^ star(phi) | Lambda^2_14 ^ phi], the two null-space bases taken
    by SVD and the 3-form stars through the compound Gram matrix."""
    G = structure
    dphi = G.d(G.phi)
    dstar = G.d(G.star_phi)

    basis14 = lambda2_14_basis(G)
    basis27 = lambda3_27_basis(G)

    e_wedge_phi = wedge_matrix(7, 1, 3, G._phi_vec)
    pos, s = complement_data(7, 3)
    star27 = np.empty_like(basis27)
    star27[pos] = s[:, None] * (G.metric.sqrt_det * (compound_matrix(G.metric.inverse, 3)
                                                     @ basis27))
    A1 = np.column_stack([G._star_phi_vec, 3.0 * e_wedge_phi, star27])
    b1 = dphi.to_vector()
    x, *_ = np.linalg.lstsq(A1, b1, rcond=None)

    e_wedge_star = wedge_matrix(7, 1, 4, G._star_phi_vec)
    phi_wedge = wedge_matrix(7, 2, 3, G._phi_vec)
    A2 = np.column_stack([4.0 * e_wedge_star, phi_wedge @ basis14])
    b2 = dstar.to_vector()
    y, *_ = np.linalg.lstsq(A2, b2, rcond=None)

    tau1_mismatch = float(np.linalg.norm(x[1:8] - y[:7]))
    if tau1_mismatch > tau1_tol:
        raise TorsionSolveError(
            f"tau1 disagrees between the two torsion equations by {tau1_mismatch:.3e}")

    tau0 = float(x[0])
    tau1 = KForm.from_vector(7, 1, x[1:8])
    tau3 = KForm.from_vector(7, 3, basis27 @ x[8:])
    tau2 = KForm.from_vector(7, 2, basis14 @ y[7:])
    residual = max(float(np.linalg.norm(A1 @ x - b1)), float(np.linalg.norm(A2 @ y - b2)))
    return TorsionForms(tau0, tau1, tau2, tau3, residual, tau1_mismatch)
