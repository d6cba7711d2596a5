#!/usr/bin/env python3
"""Record every `g2` report of a source tree, or compare two such records.

    python scripts/report_digest.py TREE OUT.json
    python scripts/report_digest.py --diff A.json B.json

The first form runs a fixed list of commands in-process through
`TREE/src/g2lab/cli.py`, from inside TREE so that corpus paths read the same
for every tree: every subcommand on every catalog name and corpus file (ricci,
soliton and einstein also with `--metric identity`), short flows and oracle
checks on n2, n12_modified_basis and n6, short flows from dense closed
perturbations of n4's and n12_modified_basis's forms (written to the scratch
directory, not to the corpus; the second has |d phi| at roundoff, not 0), and
a set of failing inputs, among them n12_modified_basis and h2 in
ill-conditioned bases, whose two tau1 equations disagree, and oracle mode on a
corpus file, which has no closed-form solution. It
writes `{argv: [exit code, stdout]}`; an exception that escapes `cli.main`
is recorded as exit code 1, as the interpreter would exit, and named on
stderr. Scratch files live in a temporary directory written `<tmp>` in the
record.

The second form prints how many reports are byte-identical and how many are
equal in value: the same exit code and the same leaves, numbers equal as
doubles (NaN equal to NaN, an integer equal to the double it writes) and
other leaves equal, so that two JSON writers of the same values agree. For
each report that differs in value it prints the largest relative difference
of its numeric leaves outside `residuals` and, apart, the largest absolute
difference of its `residuals.*` leaves: a residual is roundoff itself, so a
relative change of it says nothing about the results. It exits 1 when a
report differs in value or is in one record only.
"""
import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import pathlib
import sys
import tempfile

SOURCE_COMMANDS = ("check", "metric", "torsion", "classify", "ricci", "soliton",
                   "einstein", "su3")
METRIC_COMMANDS = ("ricci", "soliton", "einstein")
FLOW_NAMES = ("n2", "n12_modified_basis", "n6")
FLOW_ARGS = ["--t-end", "0.2", "--dt", "0.01", "--sample-every", "5"]
#: catalog name -> seed of the exact 3-form added to its form
DENSE_FLOWS = {"n4": 4, "n12_modified_basis": 12}
#: catalog name -> seed of a basis change under which the tau1 equations disagree
BASIS_CHANGES = {"n12_modified_basis": 2123, "h2": 644}
#: a file input, for which oracle mode has no closed-form solution
ORACLE_FILE = "corpus/valid/n2.g2"


def commands(names, files):
    """The fixed argv list; `<tmp>` stands for the scratch directory."""
    argvs = [["catalog"]] + [["catalog", name] for name in names]
    for source in [["--catalog", name] for name in names] + [[f] for f in files]:
        argvs += [[cmd, *source] for cmd in SOURCE_COMMANDS]
        argvs += [[cmd, *source, "--metric", "identity"] for cmd in METRIC_COMMANDS]
    for name in FLOW_NAMES:
        flow = ["flow", "--catalog", name, *FLOW_ARGS]
        argvs += [flow, flow + ["--oracle"], ["oracle", "--catalog", name, "--times", "0,1,10"]]
    argvs += [["flow", f"<tmp>/{name}_closed_perturbation.g2", *FLOW_ARGS] for name in DENSE_FLOWS]
    return argvs + [
        ["check"],
        ["check", "--catalog", "nope"],
        ["catalog", "nope"],
        ["check", "<tmp>/missing.g2"],
        ["check", "<tmp>"],
        ["check", "<tmp>/latin1.g2"],
        ["check", "<tmp>/syntax.g2"],
        ["oracle", "--catalog", "n2", "--times", "abc"],
        ["oracle", "--catalog", "n2", "--times", "-1"],
        ["flow", "--catalog", "n2", "--t-end", "0.02", "--dt", "0.01", "--sample-every", "0"],
        ["flow", "--catalog", "n2", "--t-end", "-1"],
        ["flow", "--catalog", "n2", "--t-end", "inf"],
        ["flow", "--catalog", "n2", "--dt", "nan"],
        ["flow", "--catalog", "n2", "--dt", "inf"],
        ["oracle", "--catalog", "n2", "--times", "inf"],
        ["oracle", "--catalog", "n2", "--times", "nan"],
        ["check", "--catalog", "n2", "--tol", "nan"],
        ["check", "--catalog", "n2", "--tol", "-1"],
        ["check", "--catalog", "n2", "--tol", "abc"],
        ["torsion", "<tmp>/n12_modified_basis_basis_changed.g2"],
        ["einstein", "<tmp>/n12_modified_basis_basis_changed.g2"],
        ["su3", "<tmp>/h2_basis_changed.g2"],
        ["flow", ORACLE_FILE, "--oracle", "--out", "<tmp>/oracle.csv"],
        ["oracle", ORACLE_FILE],
    ]


def write_dense_closed(name, seed, path):
    """A catalog form plus a seeded exact 3-form d(beta) a fifth its size, as a
    document: a closed form with more nonzero coefficients than any catalog one."""
    import numpy as np  # after g2lab, whose import sets the BLAS thread defaults
    KForm = importlib.import_module("g2lab.exterior").KForm
    inputfmt = importlib.import_module("g2lab.inputfmt")
    entry = importlib.import_module("g2lab.catalog").catalog(name)
    d2 = entry.algebra.diff_matrix(2)
    dbeta = d2 @ np.random.default_rng(seed).standard_normal(d2.shape[1])
    phi = entry.forms["phi"].to_vector()
    phi = phi + 0.2 * np.linalg.norm(phi) * dbeta / np.linalg.norm(dbeta)
    doc = inputfmt.InputDocument(entry.algebra, {"phi": KForm.from_vector(7, 3, phi)})
    pathlib.Path(path).write_text(inputfmt.format_document(doc))


def write_basis_changed(name, seed, path):
    """A catalog entry in the basis f = A e, A = I + 0.3 N with N a seeded
    standard normal matrix, as a document: since e^j = sum_k A_kj f^k, a
    k-form's coefficients go to the minors C_k(A) times them, and
    d f^i = sum_j (A^-1)_ji d e^j."""
    import numpy as np  # after g2lab, whose import sets the BLAS thread defaults
    KForm = importlib.import_module("g2lab.exterior").KForm
    inputfmt = importlib.import_module("g2lab.inputfmt")
    entry = importlib.import_module("g2lab.catalog").catalog(name)
    n = entry.algebra.dim
    A = np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))

    def compound(k):
        keys = list(itertools.combinations(range(n), k))
        return np.array([[np.linalg.det(A[np.ix_(r, c)]) for c in keys] for r in keys])

    de = np.stack([form.to_vector() for form in entry.algebra.dual_differential])
    duals = np.linalg.inv(A).T @ de @ compound(2).T
    algebra = importlib.import_module("g2lab.liealg").LieAlgebra(
        [KForm.from_vector(n, 2, v) for v in duals])
    forms = {key: KForm.from_vector(n, form.degree, compound(form.degree) @ form.to_vector())
             for key, form in entry.forms.items()}
    pathlib.Path(path).write_text(inputfmt.format_document(inputfmt.InputDocument(algebra, forms)))


def record(tree, out):
    tree = pathlib.Path(tree).resolve()
    out = pathlib.Path(out).resolve()
    sys.path.insert(0, str(tree / "src"))
    os.environ.pop("G2_TOL", None)
    cli = importlib.import_module("g2lab.cli")
    names = importlib.import_module("g2lab.catalog").catalog_names()
    os.chdir(tree)
    files = sorted(str(p) for p in pathlib.Path("corpus").glob("*/*.g2"))
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, "latin1.g2").write_bytes("algebra { dim 7 } # café".encode("latin-1"))
        pathlib.Path(tmp, "syntax.g2").write_text("algebra { dim 7 d e5 = ")
        for name, seed in DENSE_FLOWS.items():
            write_dense_closed(name, seed, pathlib.Path(tmp, f"{name}_closed_perturbation.g2"))
        for name, seed in BASIS_CHANGES.items():
            write_basis_changed(name, seed, pathlib.Path(tmp, f"{name}_basis_changed.g2"))
        for argv in commands(names, files):
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([a.replace("<tmp>", tmp) for a in argv])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                print(f"{' '.join(argv)}: uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            reports[" ".join(argv)] = [code, stdout.getvalue().replace(tmp, "<tmp>")]
    out.write_text(json.dumps(reports, indent=1) + "\n")
    print(f"{len(reports)} reports written to {out}")


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _difference(a, b, relative):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b) / (max(abs(a), abs(b)) if relative else 1.0)
    return d if math.isfinite(d) else math.inf


def equal_in_value(a, b):
    """Whether reports `a` and `b` have the same exit code and the same leaves,
    numbers equal as doubles; stdout that is not JSON must be the same text."""
    try:
        left, right = (dict(_leaves(json.loads(x[1]))) for x in (a, b))
    except json.JSONDecodeError:
        return a == b
    return a[0] == b[0] and left.keys() == right.keys() and all(
        _same_leaf(left[k], right[k]) for k in left)


def _same_leaf(x, y):
    """Numbers equal as doubles, NaN equal to NaN; other leaves equal."""
    if _is_number(x) and _is_number(y):
        return _difference(x, y, False) == 0.0
    return not (_is_number(x) or _is_number(y)) and x == y


def describe(a, b):
    """One line on how report `b` differs from report `a`."""
    line = f"exit {a[0]} -> {b[0]}"
    try:
        left, right = (dict(_leaves(json.loads(x[1]))) for x in (a, b))
    except json.JSONDecodeError:
        return line + ", stdout is not JSON on at least one side"
    numeric = [k for k in left.keys() & right.keys()
               if _is_number(left[k]) and _is_number(right[k])]
    residual = {k for k in numeric if k.startswith(".residuals.")}
    rel = [_difference(left[k], right[k], True) for k in numeric if k not in residual]
    res = [_difference(left[k], right[k], False) for k in residual]
    other = sum(1 for k in left.keys() | right.keys()
                if not (_is_number(left.get(k)) and _is_number(right.get(k)))
                and not _same_leaf(left.get(k, ()), right.get(k, ())))
    return line + f", largest relative difference {max(rel, default=0.0):.3g} outside " \
                  f"residuals, largest absolute difference {max(res, default=0.0):.3g} " \
                  f"in residuals, {other} non-numeric leaves differ"


def diff(path_a, path_b):
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    same = sum(1 for argv in a if b.get(argv) == a[argv])
    equal = sum(1 for argv in a if argv in b and equal_in_value(a[argv], b[argv]))
    argvs = list(a) + [argv for argv in b if argv not in a]
    print(f"{same} of {len(argvs)} reports identical, {equal} equal in value")
    for argv in argvs:
        if argv not in a or argv not in b:
            print(f"{argv}: only in {path_a if argv in a else path_b}")
        elif not equal_in_value(a[argv], b[argv]):
            print(f"{argv}: {describe(a[argv], b[argv])}")
    return 0 if equal == len(a) == len(b) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--diff", action="store_true", help="compare two records")
    parser.add_argument("first", help="source tree, or the first record with --diff")
    parser.add_argument("second", help="output record, or the second record with --diff")
    args = parser.parse_args()
    if args.diff:
        return diff(args.first, args.second)
    record(args.first, args.second)
    return 0


if __name__ == "__main__":
    sys.exit(main())
