import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from g2lab.catalog import catalog
from g2lab.exterior import KForm, Metric, multi_indices
from g2lab.g2core import G2Structure

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


@pytest.fixture(scope="session")
def catalog_structures():
    """All catalog entries carrying a distinguished 3-form, as G2Structures."""
    out = {}
    for name in ("std_g2", "n2", "n4", "n6", "n12_modified_basis", "s_ext_h2"):
        entry = catalog(name)
        out[name] = G2Structure(entry.algebra, entry.forms["phi"])
    return out
