"""Parser for the identity input mini-language.

Grammar (documented in the README):

    expr    := term (('+' | '-') term)*
    term    := [coefficient ['*']] factor+
    factor  := variable | '(' expr ')' | '[' expr ',' expr ']'
    variable:= 'x' digit primes        e.g. x1, x2', x3''
    coefficient := integer ['/' integer]

Juxtaposed factors multiply left-associatively, so "(x1 x2 x3)" is
"((x1 x2) x3)".  Brackets are commutators: [a, b] = ab - ba.  The
result is an NAPoly; multilinearity is checked at translation time, not
here, so repeated slots can be fed to `linearize`.  Parentheses and
brackets nest at most MAX_NESTING levels deep, a monomial has at most
MAX_DEGREE variables, one product pairs at most MAX_PAIRS monomials, and
an integer has at most MAX_DIGITS digits.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import IdentityParseError
from .identities import NAPoly, commutator, poly, var

_TOKEN = re.compile(r"\s*(x[1-9]'*|\d+|[()\[\],+\-*/])")

# Deepest bracket nesting accepted; the parser recurses once per level.
MAX_NESTING = 50

# Most variables in one monomial.  Monomial trees are walked recursively,
# and a commutator of d + 1 variables expands to 2^d monomials, so this
# also caps a commutator at 2048 monomials.
MAX_DEGREE = 12

# Most monomial pairs one product may expand: a product of sums grows as
# the product of their lengths, which the degree bound alone leaves open.
MAX_PAIRS = 2048

# Longest integer literal: Python's default limit on int-string conversion.
MAX_DIGITS = 4300


def _degree(p: NAPoly) -> int:
    return max((len(mono.leaves()) for _, mono in p.terms), default=0)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise IdentityParseError(
                    f"unexpected character {text[pos:].lstrip()[0]!r}", pos
                )
            break
        tok, where = m.group(1), m.start(1)
        if tok.isdigit() and len(tok) > MAX_DIGITS:
            raise IdentityParseError(f"integer literal longer than {MAX_DIGITS} digits", where)
        tokens.append((tok, where))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> NAPoly:
        out = self.parse_expr()
        if self.peek() is not None:
            raise IdentityParseError(
                f"unexpected token {self.peek()!r}", self.where()
            )
        if not out:
            raise IdentityParseError("empty identity", 0)
        return out

    def nested_expr(self) -> NAPoly:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise IdentityParseError(
                f"brackets nested deeper than {MAX_NESTING} levels", self.where()
            )
        out = self.parse_expr()
        self.depth -= 1
        return out

    def product(self, a: NAPoly, b: NAPoly, multiply) -> NAPoly:
        """multiply(a, b), refused before it is built when it would exceed
        MAX_DEGREE variables per monomial or MAX_PAIRS monomial pairs."""
        if _degree(a) + _degree(b) > MAX_DEGREE:
            raise IdentityParseError(
                f"a monomial has more than {MAX_DEGREE} variables", self.where()
            )
        if len(a.terms) * len(b.terms) > MAX_PAIRS:
            raise IdentityParseError(
                f"a product expands to more than {MAX_PAIRS} monomials", self.where()
            )
        return multiply(a, b)

    def parse_expr(self) -> NAPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.parse_term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            out = out + (term if op == "+" else -term)
        return out

    def parse_term(self) -> NAPoly:
        coeff = Fraction(1)
        tok = self.peek()
        if tok is not None and tok.isdigit():
            coeff = Fraction(int(self.take()))
            if self.peek() == "/":
                self.take()
                den = self.take()
                if den is None or not den.isdigit() or int(den) == 0:
                    raise IdentityParseError("bad rational coefficient", self.where())
                coeff /= int(den)
            if self.peek() == "*":
                self.take()
        out = None
        while True:
            tok = self.peek()
            if tok is None or tok in ("+", "-", ",", ")", "]"):
                break
            factor = self.parse_factor()
            out = factor if out is None else self.product(out, factor, NAPoly.__mul__)
        if out is None:
            raise IdentityParseError("expected a monomial", self.where())
        return out.scale(coeff)

    def parse_factor(self) -> NAPoly:
        tok = self.take()
        if tok is None:
            raise IdentityParseError("unexpected end of input", self.where())
        if tok.startswith("x"):
            primes = len(tok) - tok.index("'") if "'" in tok else 0
            slot = int(tok[1])
            return poly(var(slot, primes))
        if tok == "(":
            inner = self.nested_expr()
            if self.take() != ")":
                raise IdentityParseError("missing ')'", self.where())
            return inner
        if tok == "[":
            left = self.nested_expr()
            if self.take() != ",":
                raise IdentityParseError("missing ',' in commutator", self.where())
            right = self.nested_expr()
            if self.take() != "]":
                raise IdentityParseError("missing ']'", self.where())
            return self.product(left, right, commutator)
        raise IdentityParseError(f"unexpected token {tok!r}", self.where())


def parse_identity(text: str) -> NAPoly:
    """Parse an identity expression into an NAPoly (no signature attached)."""
    return _Parser(text).parse()
