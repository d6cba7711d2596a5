"""Importing g2lab defaults BLAS to one thread before numpy is first imported,
and leaves a thread count set in the environment alone."""
import json
import os
import subprocess
import sys

import pytest

VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# records each variable at the moment numpy is first imported, then after import
PROBE = """
import builtins, json, os, sys
real_import = builtins.__import__
at_numpy = {}
def probe(name, *args, **kwargs):
    if name == "numpy" and "numpy" not in sys.modules and not at_numpy:
        at_numpy.update({v: os.environ.get(v) for v in %r})
    return real_import(name, *args, **kwargs)
builtins.__import__ = probe
import g2lab
print(json.dumps([at_numpy, {v: os.environ.get(v) for v in %r}]))
""" % (VARS, VARS)


def _probe(**env):
    clean = {k: v for k, v in os.environ.items() if k not in VARS}
    proc = subprocess.run([sys.executable, "-c", PROBE], env={**clean, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_defaults_apply_before_numpy_when_unset():
    at_numpy, after = _probe()
    assert at_numpy == after == {v: "1" for v in VARS}


@pytest.mark.parametrize("var", VARS)
def test_a_set_value_is_kept(var):
    at_numpy, after = _probe(**{var: "3"})
    assert at_numpy == after == {v: "3" if v == var else "1" for v in VARS}
