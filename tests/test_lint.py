"""Static checks on the package source, with the standard library alone."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g2lab"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements of `source` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport json.encoder as enc\n"
              "import numpy as np\nfrom math import pi, tau\nx = np.zeros(1) * pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "enc"), (5, "tau")]


def unused_private_names(sources):
    """(module, line, name) of the private module-level functions, classes and
    constants of `sources` ({module: source}) whose name no module there reads,
    as a loaded name or an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_detects_unused_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n_x, _y = 1, 2\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _dead():\n    _inner = 1\n    return _inner\n"
                 "class _Unused:\n    pass\n__all__ = []\n"),
        "b.py": "from a import _helper\nimport a\nprint(_helper(), a._y)\n",
    }
    assert unused_private_names(sources) == [
        ("a.py", 2, "_SPARE"), ("a.py", 3, "_x"), ("a.py", 6, "_dead"), ("a.py", 9, "_Unused")]


def _setattr_call(node):
    """(target, name) of an `object.__setattr__(target, "name", value)` call,
    name None when it is not a string literal; None for any other node."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
            and len(node.args) == 3):
        return None
    name = node.args[1]
    return node.args[0], name.value if isinstance(name, ast.Constant) else None


def _lazy_slots(tree):
    """Names of the slots that a class of `tree` declares in `__slots__` and
    sets to None in its `__init__` through `object.__setattr__(self, ...)`."""
    lazy = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        slots, none_set = set(), set()
        for item in cls.body:
            if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
                slots |= {e.value for e in ast.walk(item.value) if isinstance(e, ast.Constant)}
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for node in ast.walk(item):
                    call = _setattr_call(node)
                    if (call and isinstance(call[0], ast.Name) and call[0].id == "self"
                            and isinstance(node.args[2], ast.Constant)
                            and node.args[2].value is None):
                        none_set.add(call[1])
        lazy |= slots & none_set
    return lazy


def foreign_slot_writes(sources):
    """(module, line, name) of each `object.__setattr__(target, "name", ...)` in
    `sources` ({module: source}) whose target is not `self` and whose name is
    not a lazily filled slot: one that a class there declares in `__slots__`
    and sets to None in its `__init__`.  Such a write reaches into another
    object, which is only sound for a slot its class leaves empty for it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    lazy = set().union(*(_lazy_slots(tree) for tree in trees.values()))
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            call = _setattr_call(node)
            if call is None or isinstance(call[0], ast.Name) and call[0].id == "self":
                continue
            if call[1] not in lazy:
                out.append((module, node.lineno, call[1]))
    return sorted(out, key=lambda entry: (entry[0], entry[1]))


def test_foreign_setattr_only_fills_lazy_slots():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert foreign_slot_writes(sources) == []


def test_detects_foreign_slot_writes():
    sources = {
        "a.py": ("class A:\n"
                 "    __slots__ = ('x', '_cache', '_eager', '_other')\n"
                 "    def __init__(self):\n"
                 "        object.__setattr__(self, 'x', 1)\n"
                 "        object.__setattr__(self, '_cache', None)\n"
                 "        object.__setattr__(self, '_eager', 0)\n"
                 "class B:\n"
                 "    def __init__(self):\n"
                 "        object.__setattr__(self, '_unslotted', None)\n"),
        "b.py": ("def fill(a, name):\n"
                 "    object.__setattr__(a, '_cache', 2)\n"
                 "    object.__setattr__(a, 'x', 2)\n"
                 "    object.__setattr__(a, '_eager', 2)\n"
                 "    object.__setattr__(a, '_unslotted', 2)\n"
                 "    object.__setattr__(a.b, '_other', 2)\n"
                 "    object.__setattr__(a, name, 2)\n"
                 "    setattr(a, 'x', 2)\n"),
    }
    assert foreign_slot_writes(sources) == [
        ("b.py", 3, "x"), ("b.py", 4, "_eager"), ("b.py", 5, "_unslotted"),
        ("b.py", 6, "_other"), ("b.py", 7, None)]


ROOT = SRC.parent.parent


def readme_python(text):
    """The ```python blocks of a markdown text, joined."""
    return "\n".join(block.split("```")[0] for block in text.split("```python")[1:])


def caller_sources():
    """{path: source} of the callers of the public surface: `src/g2lab` (not
    `__init__.py`, which only re-exports), `scripts/`, `perfbench/` and
    README's python block."""
    sources = {p.name: p.read_text() for p in MODULES}
    sources.update({str(p.relative_to(ROOT)): p.read_text() for d in ("scripts", "perfbench")
                    for p in sorted((ROOT / d).rglob("*.py"))})
    sources["README.md"] = readme_python((ROOT / "README.md").read_text())
    return sources


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted(func, skip_first):
    """(position or None, name) of the defaulted parameters of `func`; keyword-only
    ones have no position, and `skip_first` drops self or cls from the count."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - skip_first, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def settable_defaults(source):
    """(line, callee, label, position, name) of each defaulted value of `source` a
    caller may set: parameters of public module-level functions, of the methods and
    `__init__` of classes without base classes (called as the class), and dataclass
    fields with a default (set through the class)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out += [(node.lineno, node.name, f"{node.name}({name})", pos, name)
                    for pos, name in _defaulted(node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.bases:
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            if _is_dataclass(node):
                out += [(item.lineno, node.name, f"{node.name}.{item.target.id}", i,
                         item.target.id)
                        for i, item in enumerate(fields) if item.value is not None]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or (
                        item.name.startswith("__") and item.name != "__init__"):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                callee = node.name if item.name == "__init__" else item.name
                out += [(item.lineno, callee, f"{node.name}.{item.name}({name})", pos, name)
                        for pos, name in _defaulted(item, 0 if static else 1)]
    return out


def supplied(sources):
    """{callee: (positions, keywords)} over the calls in `sources`: how many
    arguments some call passes by position, and which by keyword; a * or **
    argument counts as supplying every position or keyword."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            positions, keywords = calls.setdefault(callee, [0, set()])
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls[callee][0] = max(positions, float("inf") if starred else len(node.args))
            keywords.update(k.arg or "**" for k in node.keywords)
    return calls


def uncalled_defaults(definitions, callers):
    """(module, line, label) of the settable defaults of `definitions`
    ({module: source}) that no call in `callers` sets."""
    calls = supplied(callers)
    out = []
    for module, source in definitions.items():
        for line, callee, label, pos, name in settable_defaults(source):
            positions, keywords = calls.get(callee, (0, set()))
            if not (pos is not None and pos < positions or name in keywords
                    or "**" in keywords):
                out.append((module, line, label))
    return sorted(out)


def test_every_default_has_a_caller():
    # unit tests are not callers; the acceptance gate, which sets the paper's
    # values, is
    definitions = {p.name: p.read_text() for p in MODULES}
    callers = [*caller_sources().values(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    assert uncalled_defaults(definitions, callers) == []


def test_detects_uncalled_defaults():
    definitions = {"a.py": (
        "def f(x, tol=1.0, cutoff=2.0, *, scale=3.0):\n    pass\n"
        "def g(x, y=1):\n    pass\n"
        "def _private(x, y=1):\n    pass\n"
        "class C:\n"
        "    def __init__(self, a, b=2):\n        pass\n"
        "    def m(self, a=1, b=2):\n        pass\n"
        "    @staticmethod\n    def s(a=1):\n        pass\n"
        "    def __eq__(self, other=None):\n        pass\n"
        "class E(Exception):\n    def __init__(self, msg=''):\n        pass\n"
        "@dataclass(frozen=True)\nclass D:\n    x: int\n    y: int = 1\n    z: int = 2\n")}
    callers = ["f(1, 2)\nf(1, scale=4)\nh(*args)\nC(1)\nobj.m(b=3)\nobj.s(1)\n"
               "D(0, 1)\ng(x=1, **extra)\n"]
    assert uncalled_defaults(definitions, callers) == [
        ("a.py", 1, "f(cutoff)"), ("a.py", 8, "C.__init__(b)"), ("a.py", 10, "C.m(a)"),
        ("a.py", 24, "D.z")]


def _member_names(cls, item):
    """Names that the class body statement `item` of `cls` defines as members:
    a method or property, the entries of `__slots__`, a class attribute, or a
    dataclass field."""
    if isinstance(item, ast.FunctionDef):
        return [item.name]
    if isinstance(item, ast.Assign):
        targets = [e.id for t in item.targets for e in ast.walk(t) if isinstance(e, ast.Name)]
        if targets != ["__slots__"]:
            return targets
        return [e.value for e in ast.walk(item.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and _is_dataclass(cls)):
        return [item.target.id]
    return []


def public_definitions(source):
    """(first line, last line, name, is_method) of the public module-level
    functions and classes of `source`, and of the public members of those
    classes: methods, properties, `__slots__` entries, class attributes and
    dataclass fields, all read as attributes (is_method True)."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append((node.lineno, node.end_lineno, node.name, False))
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, item.end_lineno, name, True) for item in node.body
                    for name in _member_names(node, item) if not name.startswith("_")]
    return out


def name_reads(source, stem):
    """(line, name, module, as_attribute) of each name that `source`, the
    module `stem`, reads.  A loaded Name (as_attribute False) is read from the
    module it is imported from by name (`from <module> import name`; "g2lab"
    for the package), else from `stem`.  An Attribute, or a part after the
    first of a dotted "<module>.<name>" string constant (True), is read from
    whatever its qualifier names: the module of `<module>.name`, `g2lab.name`
    or an `import ... as` alias, or any other object."""
    tree = ast.parse(source)
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source_module = (node.module or "g2lab").split(".")[-1]
            for alias in node.names:
                imported[alias.asname or alias.name] = (source_module, alias.name)
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules.update({alias.asname: alias.name.split(".")[-1]
                            for alias in node.names if alias.asname})
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            source_module, name = imported.get(node.id, (stem, node.id))
            out.append((node.lineno, name, source_module, False))
        elif isinstance(node, ast.Attribute):
            value = node.value
            qualifier = (modules.get(value.id, value.id) if isinstance(value, ast.Name)
                         else value.attr if isinstance(value, ast.Attribute) else None)
            out.append((node.lineno, node.attr, qualifier, True))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                out += [(node.lineno, part, qualifier, True)
                        for qualifier, part in zip(parts, parts[1:])]
    return out


def uncalled_public_names(definitions, callers):
    """(module, line, name) of the public names of `definitions` ({module:
    source}) that nothing in `callers` ({module: source}) reads outside the
    name's own definition.  A module-level function or class is read only
    through a binding of it, from its own module or from "g2lab" (`name_reads`);
    a method or property only as an attribute, of any object."""
    reads = {}
    for module, source in callers.items():
        for line, name, source_module, as_attribute in name_reads(source, Path(module).stem):
            reads.setdefault(name, []).append((module, line, source_module, as_attribute))
    out = []
    for module, source in definitions.items():
        for first, last, name, is_method in public_definitions(source):
            if not any((m != module or not first <= line <= last)
                       and (as_attribute if is_method else source_module in (Path(module).stem,
                                                                             "g2lab"))
                       for m, line, source_module, as_attribute in reads.get(name, ())):
                out.append((module, first, name))
    return sorted(out)


def test_every_public_name_has_a_caller():
    # tests are not callers
    definitions = {p.name: p.read_text() for p in MODULES}
    assert uncalled_public_names(definitions, caller_sources()) == []


def test_detects_uncalled_public_names():
    definitions = {
        "a.py": ("def used():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "def traced():\n    pass\n"
                 "def _private():\n    pass\n"
                 "class C:\n"
                 "    def called(self):\n        return self.size\n"
                 "    def alone(self):\n        return self.alone\n"
                 "    @property\n    def size(self):\n        return 1\n"
                 "    def shadowed(self):\n        pass\n"
                 "    def __len__(self):\n        return 0\n"
                 "class Unused:\n    pass\n"
                 # read only as an attribute of an object, not through a binding
                 "def hat(s):\n    return s.hat\n"
                 "def qualified():\n    pass\n"
                 "def packaged():\n    pass\n"
                 "def renamed():\n    pass\n"
                 "def same_name():\n    pass\n"
                 "def wrong_module():\n    pass\n"
                 # slots and dataclass fields are members, read as attributes
                 "class Slotted:\n    __slots__ = ('read', 'unread', '_private')\n"
                 "@dataclass(frozen=True)\nclass D:\n    kept: int\n    dropped: int = 0\n"
                 "class Plain:\n    annotated: int\n"),
        "b.py": ("from a import used\nused()\nshadowed = 1\nprint(shadowed)\n"
                 "import a as mod\nimport g2lab\nfrom g2lab import renamed as r\n"
                 "mod.qualified()\ng2lab.packaged()\nr()\n"
                 "same_name = 2\nprint(same_name, S.hat, S.wrong_module)\n"
                 "from a import Slotted, D, Plain\nprint(Slotted().read, D(1).kept, Plain)\n"),
    }
    callers = dict(definitions)
    callers["c.py"] = "TARGETS = ('a.traced', 'not a.dotted.alone', 'b.wrong_module')\n"
    callers["README.md"] = readme_python(
        "```\nUnused()\n```\n```python\nfrom a import C\nC().called()\n```\n")
    assert uncalled_public_names(definitions, callers) == [
        ("a.py", 3, "recursive"), ("a.py", 12, "alone"), ("a.py", 17, "shadowed"),
        ("a.py", 21, "Unused"), ("a.py", 23, "hat"), ("a.py", 31, "same_name"),
        ("a.py", 33, "wrong_module"), ("a.py", 36, "unread"), ("a.py", 40, "dropped")]


def test_detects_uncalled_class_attributes():
    definitions = {"a.py": ("class M:\n"
                            "    __slots__ = ('g',)\n"
                            "    flag = True\n"
                            "    read = 1\n"
                            "    __hash__ = None\n"
                            "    _private = 2\n"
                            "    low, high = 0, 1\n"
                            "    alias = other = 3\n")}
    callers = dict(definitions)
    callers["b.py"] = "from a import M\nprint(M.read, M().g, M().low, M.other)\n"
    assert uncalled_public_names(definitions, callers) == [
        ("a.py", 3, "flag"), ("a.py", 7, "high"), ("a.py", 8, "alias")]


def cli_options(source):
    """(line, option string) of each option that an `add_argument` call of
    `source` defines: its string arguments that start with "-"."""
    return [(node.lineno, arg.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("-")]


def uncalled_options(cli_source, sources, readme):
    """(line, option) of the options of `cli_source` that are neither a string
    literal of `sources` nor a word of a `g2 ...` line of `readme`, an
    `--option=value` word counting as its option."""
    called = {node.value for source in sources for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    called |= {word.split("=")[0] for line in readme.splitlines()
               if line.lstrip().startswith("g2 ") for word in line.split()}
    return sorted(entry for entry in cli_options(cli_source) if entry[1] not in called)


def test_every_option_has_a_caller():
    # tests are not callers: an option that only a test sets has no user
    sources = [p.read_text() for d in ("scripts", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert uncalled_options((SRC / "cli.py").read_text(), sources,
                            (ROOT / "README.md").read_text()) == []


def test_detects_uncalled_options():
    cli = ("sub.add_argument('input', nargs='?')\nsub.add_argument('--catalog')\n"
           "sub.add_argument('--tol', default=1.0)\nsub.add_argument('-o', '--out')\n"
           "sub.add_argument('--form')\nsub.add_argument('--times')\n"
           "sub.add_argument('--dt')\n")
    sources = ["ARGV = ['check', '--catalog', 'n2']\n", "print('--out is set', '-o')\n"]
    readme = "```\ng2 flow --times=0,1\n  g2 flow --dt 1e-3\n```\nsee --form and --tol\n"
    assert uncalled_options(cli, sources, readme) == [(3, "--tol"), (4, "--out"), (5, "--form")]


_ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source):
    """Lines of `source` that use `environ` or `getenv` (as a name or an
    attribute) other than as the target of an item assignment or of a
    `setdefault` call whose value is discarded: the reads of the environment."""
    tree = ast.parse(source)
    writes = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "setdefault"):
            writes.add(id(node.value.func.value))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            writes.add(id(node.value))
    return [node.lineno for node in ast.walk(tree)
            if (getattr(node, "attr", None) or getattr(node, "id", None)) in _ENVIRONMENT
            and id(node) not in writes]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    # __init__ sets the BLAS thread defaults with os.environ.setdefault
    assert environment_reads(path.read_text()) == []


def test_detects_environment_reads():
    source = ("import os\nfrom os import environ, getenv\n"
              "os.environ.setdefault('A', '1')\nos.environ['B'] = '2'\n"
              "x = os.environ.get('C')\ny = os.environ['D']\nz = os.getenv('E')\n"
              "w = environ.get('F') or getenv('G')\nv = dict(os.environ)\n"
              "u = os.environ.setdefault('H', '1')\n")
    assert sorted(environment_reads(source)) == [5, 6, 7, 8, 8, 9, 10]
