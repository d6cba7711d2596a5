"""Built-in catalog of the algebras and named forms used across the suite.

Entries are written in the text input format and parsed once on first use,
which keeps a single source of truth for the structure constants and doubles
as a standing test of the parser.
"""
from __future__ import annotations

from dataclasses import dataclass

from .inputfmt import InputDocument, parse_document

_SOURCES = {
    "n1": ("abelian", """
algebra { dim 7 }
"""),
    "n2": ("2-step nilpotent, complex Heisenberg times a line", """
algebra {
  dim 7
  d e5 = e12
  d e6 = e13
}
form phi {
  e123 + e147 + e156 + e245 + e267 - e346 + e357
}
"""),
    "n3": ("2-step nilpotent", """
algebra {
  dim 7
  d e4 = e12
  d e5 = e13
  d e6 = e23
}
"""),
    "n4": ("3-step nilpotent", """
algebra {
  dim 7
  d e3 = e12
  d e6 = e13 + e24
  d e7 = e15
}
form phi {
  - e124 + e135 + e167 - e236 + e257 + e347 - e456
}
"""),
    "n5": ("3-step nilpotent", """
algebra {
  dim 7
  d e3 = e12
  d e6 = e13
  d e7 = e14 + e25
}
"""),
    "n6": ("3-step nilpotent, filiform-like tower", """
algebra {
  dim 7
  d e4 = e12
  d e5 = e13
  d e6 = e14
  d e7 = e15
}
form phi {
  e123 + e145 + e167 - e246 + e257 + e347 + e356
}
"""),
    "n7": ("3-step nilpotent", """
algebra {
  dim 7
  d e4 = e12
  d e5 = e13
  d e6 = e14 + e23
  d e7 = e15
}
"""),
    "n8": ("4-step nilpotent", """
algebra {
  dim 7
  d e3 = e12
  d e4 = e13
  d e5 = e23
  d e6 = e15 + e24
  d e7 = e16 + e34
}
"""),
    "n9": ("4-step nilpotent", """
algebra {
  dim 7
  d e3 = e12
  d e4 = e13
  d e5 = e23
  d e6 = e15 + e24
  d e7 = e16 + e25 + e34
}
"""),
    "n10": ("4-step nilpotent", """
algebra {
  dim 7
  d e3 = e12
  d e5 = e13 + e24
  d e6 = e14
  d e7 = e15 + e23 + e34 + e46
}
"""),
    "n11": ("4-step nilpotent", """
algebra {
  dim 7
  d e3 = e12
  d e5 = e13
  d e6 = e23 + e24
  d e7 = e15 + e16 + e25 - 3 e26 + e34
}
"""),
    "n12": ("2-step nilpotent", """
algebra {
  dim 7
  d e4 = e12
  d e5 = e23
  d e6 = - e13
  d e7 = - 2 e16 + 2 e25 + 2 e26 - 2 e34
}
"""),
    "n12_modified_basis": ("n12 in the basis adapted to its distinguished 3-form", """
algebra {
  dim 7
  d e4 = sqrt(3)/6 e12
  d e5 = sqrt(3)/12 e13 - 1/4 e23
  d e6 = - 1/4 e13 - sqrt(3)/12 e23
  d e7 = - 1/4 e15 + sqrt(3)/12 e16 + sqrt(3)/12 e25 + 1/4 e26 - sqrt(3)/6 e34
}
form phi {
  - e124 + e135 + e167 - e236 + e257 + e347 - e456
}
"""),
    "h1": ("6-dimensional nilpotent, 3-step", """
algebra {
  dim 6
  d e4 = e12
  d e5 = e14 - e23
  d e6 = e15 + e34
}
"""),
    "h2": ("complex Heisenberg algebra with its coupled pair", """
algebra {
  dim 6
  d e5 = e13 - e24
  d e6 = e14 + e23
}
form omega {
  e12 + e34 - e56
}
form psi {
  e136 - e145 - e235 - e246
}
"""),
    "s_ext_h2": ("rank-one solvable extension of h2 carrying an Einstein metric", """
algebra {
  dim 7
  d e1 = 1/2 e17
  d e2 = 1/2 e27
  d e3 = 1/2 e37
  d e4 = 1/2 e47
  d e5 = e13 - e24 + e57
  d e6 = e14 + e23 + e67
}
form phi {
  e127 + e136 - e145 - e235 - e246 + e347 - e567
}
"""),
    "std_g2": ("abelian algebra with the standard positive 3-form", """
algebra { dim 7 }
form phi {
  e127 + e135 - e146 - e236 - e245 + e347 + e567
}
"""),
}

CATALOG_NAMES = tuple(_SOURCES)

_cache = {}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    document: InputDocument

    @property
    def algebra(self):
        return self.document.algebra

    @property
    def forms(self):
        return self.document.forms


def catalog_names():
    return CATALOG_NAMES


def catalog(name):
    """Look up a built-in entry by name; raises KeyError on unknown names."""
    if name not in _SOURCES:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(CATALOG_NAMES)}")
    if name not in _cache:
        description, source = _SOURCES[name]
        _cache[name] = CatalogEntry(name, description, parse_document(source, name))
    return _cache[name]
