import os
from pathlib import Path

# the single-threaded BLAS default of g2lab/__init__.py, set before numpy is
# first imported here, so the in-process tests run as `g2` does
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from g2lab.catalog import catalog
from g2lab.exterior import KForm, Metric, multi_indices
from g2lab.g2core import G2Structure
from g2lab.inputfmt import InputDocument, format_document
from g2lab.liealg import LieAlgebra

from oracles import compound_matrix

# Every checkout runs the same examples: the draws are fixed per test and no
# stored failure is replayed from a local .hypothesis database, so a failure
# found once is found in every checkout (pin it with an @example).  Random
# exploration: `--hypothesis-profile=default`.
settings.register_profile("reproducible", database=None, derandomize=True)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("reproducible")


# subprocesses (`python -m g2lab`, the scripts, the console-script launcher)
# import this checkout's package too, with or without PYTHONPATH set
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))


def form_strategy(dim, degree, max_abs=3.0):
    count = len(multi_indices(dim, degree))
    return st.lists(
        st.floats(min_value=-max_abs, max_value=max_abs, allow_nan=False,
                  allow_infinity=False, width=32),
        min_size=count, max_size=count,
    ).map(lambda v: KForm.from_vector(dim, degree, np.array(v)))


def metric_strategy(dim):
    count = dim * dim
    def build(values):
        a = np.array(values).reshape(dim, dim)
        return Metric(a @ a.T + 0.5 * np.eye(dim))
    return st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False,
                  allow_infinity=False, width=32),
        min_size=count, max_size=count,
    ).map(build)


def positive_3form_strategy():
    """Small perturbations of the standard positive 3-form stay positive."""
    std = catalog("std_g2").forms["phi"]
    count = len(multi_indices(7, 3))
    return st.lists(
        st.floats(min_value=-0.0625, max_value=0.0625, allow_nan=False,
                  allow_infinity=False, width=32),
        min_size=count, max_size=count,
    ).map(lambda v: std + KForm.from_vector(7, 3, np.array(v)))


CLOSED_CATALOG = ("std_g2", "n2", "n4", "n6", "n12_modified_basis")


@st.composite
def closed_perturbation(draw):
    """(algebra, phi + eps d beta): a closed catalog form moved along the exact
    3-forms, |eps d beta| at most a tenth of |phi| so that it stays positive."""
    entry = catalog(draw(st.sampled_from(CLOSED_CATALOG[1:])))
    d2 = entry.algebra.diff_matrix(2)
    beta = np.array(draw(st.lists(st.floats(min_value=-1.0, max_value=1.0, width=32),
                                  min_size=d2.shape[1], max_size=d2.shape[1])))
    phi, dbeta = entry.forms["phi"].to_vector(), d2 @ beta
    size = np.linalg.norm(dbeta)
    if size > 0:
        phi = phi + draw(st.floats(min_value=0.0, max_value=0.1)) * np.linalg.norm(phi) * dbeta / size
    return entry.algebra, phi


#: so(3) and sl(2, R) plus an abelian R^4, as d e^1, d e^2, d e^3 with the other four
#: closed: unimodular algebras whose Killing form is not zero.  The brackets are
#: [e2, e3] = -e1, [e1, e3] = e2, [e1, e2] = -e3 (K = -2 on e1..e3) and
#: [e1, e2] = 2 e2, [e1, e3] = -2 e3, [e2, e3] = e1 (K_11 = 8, K_23 = 4).
SEMISIMPLE_PLUS_R4 = {
    "so3+R4": ({(2, 3): 1.0}, {(1, 3): -1.0}, {(1, 2): 1.0}),
    "sl2+R4": ({(2, 3): -1.0}, {(1, 2): -2.0}, {(1, 3): 2.0}),
}


def semisimple_plus_r4(name):
    duals = [KForm(7, 2, d) for d in SEMISIMPLE_PLUS_R4[name]] + [KForm.zero(7, 2)] * 4
    return LieAlgebra(duals, name=name)


def scal_magnitude(algebra, g, ginv):
    """`curvature.scalar_curvature`'s formula, Besse's, with every term counted
    positive: 1/4 |c|_ijk |c|_abl ginv_ia ginv_jb g_kl + 1/2 ginv_ij K'_ij +
    h'_i ginv_ij h'_j, with K'_ij = sum_km |c_imk| |c_jkm| and h'_i = sum_j |c_ijj|
    the Killing form's and the trace vector's terms by absolute value.  Pass the
    entrywise absolute values of g and g^-1 (or larger matrices)."""
    c = np.abs(algebra.bracket)
    raised = np.einsum("ia,jb,ijk->abk", ginv, ginv, c)
    mu = np.einsum("abk,abl,kl->", raised, c, g)
    killing = np.einsum("imk,jkm->ij", c, c)
    h = np.einsum("ijj->i", c)
    return float(0.25 * mu + 0.5 * np.sum(ginv * killing) + h @ ginv @ h)


def basis_changed_document(name, seed):
    """Catalog entry `name` written in the basis f = A e, as document text.

    A = I + 0.3 N with N a seeded standard normal matrix.  Since
    e^j = sum_k A_kj f^k, a k-form's coefficients go to C_k(A) times them
    (the compound from `oracles.compound_matrix`) and d f^i = sum_j
    (A^-1)_ji d e^j.  Ill-conditioned draws lose digits: for
    n12_modified_basis with seed 2123 (cond A ~ 1.6e3) the two tau1 formulas
    of `torsion_forms` disagree by ~1.7e-5, for h2's SU(3) pair with seed 644
    (cond A ~ 9e2) those of its G2 product by ~7.5e-6.
    """
    entry = catalog(name)
    n = entry.algebra.dim
    A = np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))
    de = np.stack([form.to_vector() for form in entry.algebra.dual_differential])
    duals = np.linalg.inv(A).T @ de @ compound_matrix(A, 2).T
    forms = {key: KForm.from_vector(n, form.degree,
                                    compound_matrix(A, form.degree) @ form.to_vector())
             for key, form in entry.forms.items()}
    algebra = LieAlgebra([KForm.from_vector(n, 2, v) for v in duals])
    return format_document(InputDocument(algebra, forms))


@pytest.fixture(scope="session")
def catalog_structures():
    """All catalog entries carrying a distinguished 3-form, as G2Structures."""
    out = {}
    for name in ("std_g2", "n2", "n4", "n6", "n12_modified_basis", "s_ext_h2"):
        entry = catalog(name)
        out[name] = G2Structure(entry.algebra, entry.forms["phi"])
    return out
