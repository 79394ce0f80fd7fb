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
here, so repeated slots can be fed to `linearize`.  The bounds shared
with rule expressions (nesting, literal length, error quotes) are in
`syntax`; a monomial has at most MAX_DEGREE variables and one product
pairs at most MAX_PAIRS monomials.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import IdentityParseError
from .identities import NAPoly, commutator, poly, var
from .syntax import Descent, quote

# Most variables in one monomial.  Monomial trees are walked recursively,
# and a commutator of d + 1 variables expands to 2^d monomials, so this
# also caps a commutator at 2048 monomials.
MAX_DEGREE = 12

# Most monomial pairs one product may expand: a product of sums grows as
# the product of their lengths, which the degree bound alone leaves open.
MAX_PAIRS = 2048


def _degree(p: NAPoly) -> int:
    return max((len(mono.leaves()) for _, mono in p.terms), default=0)


class _Parser(Descent):
    TOKEN = re.compile(r"\s*(x[1-9]'*|\d+|[()\[\],+\-*/])")

    def fail(self, message, offset=None):
        raise IdentityParseError(message, self.where() if offset is None else offset)

    def parse(self) -> NAPoly:
        out = super().parse()
        if not out:
            self.fail("empty identity", 0)
        return out

    def product(self, a: NAPoly, b: NAPoly, multiply) -> NAPoly:
        """multiply(a, b), refused before it is built when it would exceed
        MAX_DEGREE variables per monomial or MAX_PAIRS monomial pairs."""
        if _degree(a) + _degree(b) > MAX_DEGREE:
            self.fail(f"a monomial has more than {MAX_DEGREE} variables")
        if len(a.terms) * len(b.terms) > MAX_PAIRS:
            self.fail(f"a product expands to more than {MAX_PAIRS} monomials")
        return multiply(a, b)

    def parse_term(self) -> NAPoly:
        coeff = Fraction(1)
        tok = self.peek()
        if tok is not None and tok.isdigit():
            coeff = Fraction(int(self.take()))
            if self.peek() == "/":
                self.take()
                den = self.take()
                if den is None or not den.isdigit() or int(den) == 0:
                    self.fail("bad rational coefficient")
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
            self.fail("expected a monomial")
        return out.scale(coeff)

    def parse_factor(self) -> NAPoly:
        tok = self.take()
        if tok is None:
            self.fail("unexpected end of input")
        if tok.startswith("x"):
            primes = len(tok) - tok.index("'") if "'" in tok else 0
            slot = int(tok[1])
            return poly(var(slot, primes))
        if tok == "(":
            inner = self.nested(self.parse_expr)
            if self.take() != ")":
                self.fail("missing ')'")
            return inner
        if tok == "[":
            left = self.nested(self.parse_expr)
            if self.take() != ",":
                self.fail("missing ',' in commutator")
            right = self.nested(self.parse_expr)
            if self.take() != "]":
                self.fail("missing ']'")
            return self.product(left, right, commutator)
        self.fail(f"unexpected token {quote(tok)}")


def parse_identity(text: str) -> NAPoly:
    """Parse an identity expression into an NAPoly (no signature attached)."""
    return _Parser(text).parse()
