"""Exterior algebra, G2- and SU(3)-structures, curvature and the Laplacian
flow on Lie algebras given by structure constants.

Every matrix here is tiny (at most 147 x 49), and a multi-threaded BLAS only
stalls on such sizes, so BLAS runs on one thread unless the environment says
otherwise.  This takes effect only when g2lab is imported before numpy.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .catalog import CatalogEntry, catalog, catalog_names
from .curvature import (SolitonCertificate, einstein_calibrated_residual,
                        einstein_residual, levi_civita, rank_one_extension, ricci,
                        ricci_operator, riemann, scal_from_torsion, scalar_curvature,
                        soliton_solve, star_ricci)
from .exterior import KForm, Metric, form_inner, hodge_star, multi_indices, wedge
from .flow import (CSV_COLUMNS, FlowOptions, FlowState, FlowTrajectory,
                   closed_form_n2, closed_form_n2_velocity, closed_form_n12,
                   closed_form_n12_velocity, flow_integrate, oracle_residual)
from .g2core import (G2Class, G2Structure, PositivityError, TorsionForms,
                     TorsionSolveError, classify, lee_form, torsion_forms)
from .inputfmt import InputDocument, ParseError, format_document, format_form, parse_document
from .liealg import (LieAlgebra, ce_diff, derivation_residual, derivation_space,
                     jacobi_residual)
from .su3 import SU3Class, SU3Structure, g2_product, hitchin_j, su3_classify

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS", "CatalogEntry", "FlowOptions", "FlowState", "FlowTrajectory",
    "G2Class", "G2Structure", "InputDocument", "KForm", "LieAlgebra", "Metric",
    "ParseError", "PositivityError", "SU3Class", "SU3Structure", "SolitonCertificate",
    "TorsionForms", "TorsionSolveError", "catalog", "catalog_names", "ce_diff",
    "classify", "closed_form_n2", "closed_form_n2_velocity", "closed_form_n12",
    "closed_form_n12_velocity", "derivation_residual", "derivation_space",
    "einstein_calibrated_residual", "einstein_residual", "flow_integrate",
    "form_inner", "format_document", "format_form", "g2_product", "hitchin_j",
    "hodge_star", "jacobi_residual", "lee_form", "levi_civita", "multi_indices",
    "oracle_residual", "parse_document", "rank_one_extension", "ricci",
    "ricci_operator", "riemann", "scal_from_torsion", "scalar_curvature",
    "soliton_solve", "star_ricci", "su3_classify", "torsion_forms", "wedge",
]
