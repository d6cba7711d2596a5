"""Text format for algebras and named forms.

Grammar (whitespace-insensitive):

    document  := algebra_block form_block*
    algebra_block := "algebra" "{" "dim" INT diff_line* "}"
    diff_line := "d" BASIS "=" ( expr | "0" )
    form_block := "form" IDENT "{" expr "}"
    expr  := ("+"|"-")? term (("+"|"-") term)*
    term  := (coeff "*"?)? MONO
    coeff := factor ("*" factor)*
    factor := NUMBER ("/" NUMBER)? | "sqrt" "(" INT ")" ("/" NUMBER)?
    MONO  := "e" DIGITS          -- digit indices in 1..dim (so dim <= 9)

Monomial indices need not be increasing: they are sorted with the
permutation sign.  A repeated index or an index above the dimension is an
error.  Unlisted basis differentials default to zero.  Coefficients are
evaluated to floats at parse time, and a term whose coefficient, or the sum
of its monomial's coefficients so far, is not a finite double is an error;
the formatter emits them as shortest round-trip decimals, so canonical
documents survive parse/format cycles bit-identically.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal

from .exterior import KForm
from .liealg import LieAlgebra


class ParseError(Exception):
    """Syntax or semantic error in an input document, with position info."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class InputDocument:
    algebra: LieAlgebra
    forms: dict


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}=+\-*/()])
""", re.VERBOSE)

_KEYWORDS = {"algebra", "form", "dim", "d", "sqrt"}


@dataclass(frozen=True)
class _Token:
    kind: str       # "number" | "word" | "punct" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind, text=None):
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            got = tok.text or "end of input"
            self.fail(f"expected {want!r}, found {got!r}", tok)
        return tok

    # --- grammar ------------------------------------------------------

    def document(self, name):
        self.expect("word", "algebra")
        self.expect("punct", "{")
        self.expect("word", "dim")
        dim_tok = self.expect("number")
        if "." in dim_tok.text:
            self.fail("dimension must be an integer", dim_tok)
        digits = dim_tok.text.lstrip("0")  # converted once it is one digit
        if len(digits) != 1:
            self.fail(f"dimension {digits or 0} outside the supported range 1..9", dim_tok)
        dim = int(digits)
        duals = {}
        while self.peek().kind == "word" and self.peek().text == "d":
            self.next()
            basis_tok = self.expect("word")
            index = self._monomial_indices(basis_tok, dim)
            if len(index) != 1:
                self.fail("expected a basis 1-form like e5", basis_tok)
            if index[0] in duals:
                self.fail(f"duplicate differential for e{index[0]}", basis_tok)
            self.expect("punct", "=")
            if self.peek().kind == "number" and self.peek().text == "0":
                self.next()
                duals[index[0]] = KForm.zero(dim, 2)
            else:
                form = self.expr(dim)
                if form.degree != 2:
                    self.fail(f"differential of e{index[0]} must be a 2-form, "
                              f"got degree {form.degree}", basis_tok)
                duals[index[0]] = form
        self.expect("punct", "}")
        algebra = LieAlgebra([duals.get(i, KForm.zero(dim, 2)) for i in range(1, dim + 1)],
                             name=name)

        forms = {}
        while self.peek().kind == "word" and self.peek().text == "form":
            self.next()
            name_tok = self.expect("word")
            if name_tok.text in _KEYWORDS:
                self.fail(f"{name_tok.text!r} is reserved and cannot name a form", name_tok)
            if name_tok.text in forms:
                self.fail(f"duplicate form {name_tok.text!r}", name_tok)
            self.expect("punct", "{")
            forms[name_tok.text] = self.expr(dim)
            self.expect("punct", "}")
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected {tok.text!r} after the last block", tok)
        return InputDocument(algebra, forms)

    def expr(self, dim):
        start, total, result_degree = self.peek(), {}, None
        while True:  # a sign before the first term is optional, before the others not
            op, sign = self.peek(), 1.0
            if op.kind == "punct" and op.text in "+-":
                self.next()
                sign = -1.0 if op.text == "-" else 1.0
            elif result_degree is not None:
                break
            tok = self.peek()
            coeff, key, degree = self.term(dim)
            if result_degree not in (None, degree):
                self.fail(f"mixed degrees {result_degree} and {degree} in one expression", op)
            result_degree = degree
            total[key] = total.get(key, 0.0) + sign * coeff
            if not math.isfinite(total[key]):  # the coefficient, or the running sum
                self.fail(f"coefficient of e{''.join(map(str, key))} is not a finite double", tok)
        form = KForm(dim, result_degree, total)
        if not math.isfinite(form.sup_norm()):  # one monomial in two index orders
            self.fail("a coefficient is not a finite double once monomials are sorted", start)
        return form

    def term(self, dim):
        coeff = 1.0
        tok = self.peek()
        if tok.kind == "number" or (tok.kind == "word" and tok.text == "sqrt"):
            coeff = self.coeff()
            if self.peek().kind == "punct" and self.peek().text == "*":
                self.next()
        mono = self.expect("word")
        indices = self._monomial_indices(mono, dim)
        return coeff, indices, len(indices)

    def coeff(self):
        value = self.factor()
        while self.peek().kind == "punct" and self.peek().text == "*":
            # a '*' is multiplication only when another coefficient follows
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "number" or (nxt.kind == "word" and nxt.text == "sqrt"):
                self.next()
                value *= self.factor()
            else:
                break
        return value

    def factor(self):
        tok = self.next()
        if tok.kind == "number":
            value = float(tok.text)
        elif tok.kind == "word" and tok.text == "sqrt":
            self.expect("punct", "(")
            arg = self.expect("number")
            if "." in arg.text:
                self.fail("sqrt takes an integer argument", arg)
            self.expect("punct", ")")
            value = math.sqrt(float(arg.text))  # as of int(arg.text), with no digit limit
        else:
            self.fail(f"expected a coefficient, found {tok.text!r}", tok)
        if self.peek().kind == "punct" and self.peek().text == "/":
            self.next()
            den_tok = self.expect("number")
            den = float(den_tok.text)
            if den == 0.0:
                self.fail("division by zero", den_tok)
            value /= den
        return value

    def _monomial_indices(self, tok, dim):
        m = re.fullmatch(r"e(\d+)", tok.text)
        if m is None:
            self.fail(f"expected a monomial like e123, found {tok.text!r}", tok)
        digits = [int(ch) for ch in m.group(1)]
        for i in digits:
            if i == 0 or i > dim:
                self.fail(f"index {i} out of range 1..{dim} in {tok.text!r}", tok)
        if len(set(digits)) != len(digits):
            self.fail(f"repeated index in monomial {tok.text!r}", tok)
        return tuple(digits)


def parse_document(text, name=None):
    """Parse a document; raises ParseError with line/column on bad input.

    `name` becomes the name of the document's `LieAlgebra`."""
    return _Parser(text).document(name)


def _format_number(x):
    r = repr(float(x))
    if "e" in r or "E" in r:
        # keep the grammar's plain-decimal lexicon: repr's shortest
        # round-trip digits, written out in full
        r = format(Decimal(r), "f")
    return r


def format_form(form):
    if not form.coeffs:
        # a zero coefficient on the first monomial keeps the degree parseable
        return "0 e" + "".join(map(str, range(1, form.degree + 1)))
    parts = []
    for key, value in form.items():
        mono = "e" + "".join(map(str, key))
        if not math.isfinite(value):
            raise ValueError(f"{mono} has the non-finite coefficient {value}")
        mag = abs(value)
        body = mono if mag == 1.0 else f"{_format_number(mag)} {mono}"
        if not parts:
            parts.append(body if value > 0 else f"- {body}")
        else:
            parts.append(("+ " if value > 0 else "- ") + body)
    return " ".join(parts)


def format_document(doc):
    """Canonical text of a document; parse(format(doc)) is bit-identical."""
    lines = ["algebra {", f"  dim {doc.algebra.dim}"]
    for i, de in enumerate(doc.algebra.dual_differential, start=1):
        if not de.is_zero():
            lines.append(f"  d e{i} = {format_form(de)}")
    lines.append("}")
    for name, form in doc.forms.items():
        lines.append(f"form {name} {{")
        lines.append(f"  {format_form(form)}")
        lines.append("}")
    return "\n".join(lines) + "\n"
